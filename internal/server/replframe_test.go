package server

import (
	"bytes"
	"io"
	"testing"

	"mbrtopo/internal/geom"
	"mbrtopo/internal/wal"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	h := hello{bootstrap: true, gen: 3, seq: 41, snapSize: 1 << 20}
	rec := wal.Record{Op: wal.OpInsert, OID: 99, Rect: geom.R(1, 2, 3, 4)}
	if err := writeFrame(&buf, frameHello, encodeHello(h)); err != nil {
		t.Fatal(err)
	}
	if err := writeFrame(&buf, frameRecord, encodeRecord(3, 42, wal.MarshalRecord(rec))); err != nil {
		t.Fatal(err)
	}
	if err := writeFrame(&buf, frameRotate, encodePosition(4, 0)); err != nil {
		t.Fatal(err)
	}
	if err := writeFrame(&buf, frameSnapEnd, nil); err != nil {
		t.Fatal(err)
	}

	fr := &frameReader{r: &buf}
	typ, p, err := fr.readFrame()
	if err != nil || typ != frameHello {
		t.Fatalf("frame 1: typ=%v err=%v", typ, err)
	}
	if got, err := decodeHello(p); err != nil || got != h {
		t.Fatalf("hello: got %+v err=%v", got, err)
	}
	typ, p, err = fr.readFrame()
	if err != nil || typ != frameRecord {
		t.Fatalf("frame 2: typ=%v err=%v", typ, err)
	}
	gen, seq, wp, err := decodeRecord(p)
	if err != nil || gen != 3 || seq != 42 {
		t.Fatalf("record position: %d/%d err=%v", gen, seq, err)
	}
	if got, ok := wal.UnmarshalRecord(wp); !ok || got != rec {
		t.Fatalf("record payload: got %+v ok=%v", got, ok)
	}
	typ, p, err = fr.readFrame()
	if err != nil || typ != frameRotate {
		t.Fatalf("frame 3: typ=%v err=%v", typ, err)
	}
	if gen, _, err := decodePosition(p); err != nil || gen != 4 {
		t.Fatalf("rotate: gen=%d err=%v", gen, err)
	}
	typ, p, err = fr.readFrame()
	if err != nil || typ != frameSnapEnd || len(p) != 0 {
		t.Fatalf("frame 4: typ=%v len=%d err=%v", typ, len(p), err)
	}
	if _, _, err := fr.readFrame(); err != io.EOF {
		t.Fatalf("expected EOF at stream end, got %v", err)
	}
}

// TestFrameReaderRejectsDamage flips every byte of a two-frame stream
// in turn: the reader must error (or report clean EOF early) — never
// hand back a frame whose payload differs from what was written.
func TestFrameReaderRejectsDamage(t *testing.T) {
	var buf bytes.Buffer
	rec := wal.Record{Op: wal.OpDelete, OID: 7, Rect: geom.R(0, 0, 1, 1)}
	if err := writeFrame(&buf, frameRecord, encodeRecord(1, 1, wal.MarshalRecord(rec))); err != nil {
		t.Fatal(err)
	}
	if err := writeFrame(&buf, frameHeartbeat, encodePosition(1, 1)); err != nil {
		t.Fatal(err)
	}
	clean := buf.Bytes()
	for i := range clean {
		bad := append([]byte(nil), clean...)
		bad[i] ^= 0x01
		fr := &frameReader{r: bytes.NewReader(bad)}
		for {
			typ, p, err := fr.readFrame()
			if err != nil {
				break // damage detected (or stream consumed by a lying length)
			}
			if typ == frameRecord {
				gen, seq, wp, derr := decodeRecord(p)
				if derr == nil && gen == 1 && seq == 1 {
					if got, ok := wal.UnmarshalRecord(wp); ok && got != rec {
						t.Fatalf("flip at %d: decoded a different record %+v", i, got)
					}
				}
			}
		}
	}
}

func TestFrameLengthBound(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, frameSnapChunk, make([]byte, maxPayload+1)); err == nil {
		t.Fatal("oversized payload accepted")
	}
	// A header advertising an impossible length must error without
	// allocating or reading the claimed payload.
	hdr := []byte{byte(frameSnapChunk), 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0}
	fr := &frameReader{r: bytes.NewReader(hdr)}
	if _, _, err := fr.readFrame(); err == nil {
		t.Fatal("impossible length accepted")
	}
}

func TestLagRecords(t *testing.T) {
	cases := []struct {
		applied, primary replPos
		want             uint64
	}{
		{replPos{1, 5}, replPos{1, 5}, 0},
		{replPos{1, 5}, replPos{1, 9}, 4},
		{replPos{1, 9}, replPos{1, 5}, 0}, // primary heartbeat raced an applied record
		{replPos{1, 9}, replPos{2, 3}, 4}, // unknown across gens: lower bound + pending rotate
		{replPos{2, 0}, replPos{2, 0}, 0},
	}
	for _, c := range cases {
		if got := lagRecords(c.applied, c.primary); got != c.want {
			t.Errorf("lag(%v, %v) = %d, want %d", c.applied, c.primary, got, c.want)
		}
	}
}
