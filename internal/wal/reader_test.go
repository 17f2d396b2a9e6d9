package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"mbrtopo/internal/geom"
)

// TestReaderRoundTrip reads a stream laid out as the replication stream
// lays it: a frame of the stream's own, raw bytes, a log file's bytes
// as the log wrote them, and more frames of the stream's own. The
// records come back as they were reserved — the extreme oid and
// coordinates included — and every other length comes back as its
// payload. A frame of a record's length whose op is unknown is an error.
func TestReaderRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "r.wal")
	l, _, err := Open(path, Options{Policy: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	want := []Record{
		{Op: OpDelete, OID: 1 << 40, Rect: geom.R(-3.5, 0.25, 9.75, 1e9)},
		tailRecord(1), tailRecord(2),
	}
	if err := l.Reserve(want...).Wait(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	file, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	head, short := bytes.Repeat([]byte{7}, 24), bytes.Repeat([]byte{9}, payloadSize-1)
	raw := []byte("raw bytes between frames")
	stream := append(AppendFrame(nil, head), raw...)
	stream = append(stream, file...)
	stream = AppendFrame(stream, short)

	r := NewReader(bytes.NewReader(stream))
	if _, p, err := r.Next(); err != nil || !bytes.Equal(p, head) {
		t.Fatalf("first frame: payload %x err %v, want %x", p, err, head)
	}
	got := make([]byte, len(raw))
	if _, err := io.ReadFull(r, got); err != nil || !bytes.Equal(got, raw) {
		t.Fatalf("raw bytes %q (%v), want %q", got, err, raw)
	}
	for i, w := range want {
		if !r.Buffered() {
			t.Fatalf("record %d: a whole frame is buffered, Buffered says not", i)
		}
		rec, p, err := r.Next()
		if err != nil || p != nil || rec != w {
			t.Fatalf("record %d: %+v (payload %x, err %v), want %+v", i, rec, p, err, w)
		}
	}
	if _, p, err := r.Next(); err != nil || !bytes.Equal(p, short) {
		t.Fatalf("a %d-byte frame: payload %x err %v, want its payload", len(short), p, err)
	}
	if r.Buffered() {
		t.Fatal("Buffered at the end of the stream")
	}
	if _, _, err := r.Next(); err != io.EOF {
		t.Fatalf("end of stream: %v, want io.EOF", err)
	}

	unknown := appendRecord(nil, want[0])
	unknown[frameHeaderSize] = 99
	unknown = AppendFrame(nil, unknown[frameHeaderSize:])
	if _, _, err := NewReader(bytes.NewReader(unknown)).Next(); !errors.Is(err, errBadFrame) {
		t.Fatalf("a record frame with op 99: %v, want errBadFrame", err)
	}
}

// TestReaderRejectsDamage flips every byte of a record frame and a
// frame of the stream's own in turn: the reader must return the frames
// before the damaged one as they were written, then report a break —
// never the damaged frame, and nothing past it.
func TestReaderRejectsDamage(t *testing.T) {
	rec := Record{Op: OpDelete, OID: 7, Rect: geom.R(0, 0, 1, 1)}
	pos := binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(nil, 1), 1)
	clean := AppendFrame(appendRecord(nil, rec), pos)
	for i := range clean {
		bad := bytes.Clone(clean)
		bad[i] ^= 0x01
		damaged := 0 // the frame holding byte i
		if i >= frameSize {
			damaged = 1
		}
		r := NewReader(bytes.NewReader(bad))
		for n := 0; ; n++ {
			got, p, err := r.Next()
			if err != nil {
				if err == io.EOF || n > damaged {
					t.Fatalf("flip at %d: %d frames, then %v; want the %d before the damaged one, then a break", i, n, err, damaged)
				}
				break
			}
			if n >= damaged || n == 0 && got != rec || n == 1 && !bytes.Equal(p, pos) {
				t.Fatalf("flip at %d: frame %d read as record %+v, payload %x", i, n, got, p)
			}
		}
	}
}

// TestReaderLengthBound: a header advertising a length no frame has is
// an error before the reader waits for, or buffers, the claimed payload.
func TestReaderLengthBound(t *testing.T) {
	hdr := []byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0}
	r := NewReader(io.MultiReader(bytes.NewReader(hdr), blockingReader{}))
	if _, _, err := r.Next(); !errors.Is(err, errBadFrame) {
		t.Fatalf("impossible length: %v, want errBadFrame", err)
	}
}

// blockingReader fails a test that reads it: nothing may be read past
// the header.
type blockingReader struct{}

func (blockingReader) Read([]byte) (int, error) { panic("read past an impossible header") }
