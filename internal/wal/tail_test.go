package wal

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"

	"mbrtopo/internal/geom"
)

func tailRecord(i int) Record {
	op := OpInsert
	if i%3 == 0 {
		op = OpDelete
	}
	return Record{Op: op, OID: uint64(i), Rect: geom.R(float64(i), 1, float64(i)+2, 3)}
}

// TestTailFollowsLiveAppends checks Next sees records as they are
// flushed, reports "not yet" while dry, and resumes afterwards.
func TestTailFollowsLiveAppends(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.wal")
	l, _, err := Open(path, Options{Policy: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	tail, err := OpenTail(path)
	if err != nil {
		t.Fatal(err)
	}
	defer tail.Close()

	if _, ok, err := tail.Next(); err != nil || ok {
		t.Fatalf("empty log: Next = ok=%v err=%v, want dry", ok, err)
	}
	for i := 0; i < 20; i++ {
		want := tailRecord(i)
		if err := l.Reserve(want).Wait(); err != nil {
			t.Fatal(err)
		}
		got, ok, err := tail.Next()
		if err != nil || !ok {
			t.Fatalf("record %d: Next = ok=%v err=%v", i, ok, err)
		}
		if got != want {
			t.Fatalf("record %d: got %+v want %+v", i, got, want)
		}
		if _, ok, err := tail.Next(); err != nil || ok {
			t.Fatalf("record %d: expected dry after drain, got ok=%v err=%v", i, ok, err)
		}
	}
	if want := int64(20 * (frameHeaderSize + payloadSize)); tail.off != want {
		t.Fatalf("offset %d, want %d", tail.off, want)
	}
}

// TestTailTornFrameBecomesIntact simulates a mid-flush read at every
// truncation point of a frame: the tail must report "not yet" (never
// an error, never a wrong record) until the full frame is present.
func TestTailTornFrameBecomesIntact(t *testing.T) {
	dir := t.TempDir()
	rec := tailRecord(7)
	full := encode(rec)
	for cut := 0; cut < len(full); cut++ {
		path := filepath.Join(dir, "torn.wal")
		if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		tail, err := OpenTail(path)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok, err := tail.Next(); err != nil || ok {
			t.Fatalf("cut %d: Next = ok=%v err=%v, want dry", cut, ok, err)
		}
		// Complete the frame: the same tail must now decode it.
		if err := os.WriteFile(path, full, 0o644); err != nil {
			t.Fatal(err)
		}
		got, ok, err := tail.Next()
		if err != nil || !ok || got != rec {
			t.Fatalf("cut %d after completion: got %+v ok=%v err=%v", cut, got, ok, err)
		}
		tail.Close()
	}
}

// TestTailSurvivesUnlink checks a tail keeps draining a file that was
// removed after it opened — the checkpoint-rotation scenario, where
// the old generation is closed (flushing every reservation) and
// deleted while a replication stream still holds its descriptor.
func TestTailSurvivesUnlink(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rot.wal")
	l, _, err := Open(path, Options{Policy: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := l.Reserve(tailRecord(i)).Wait(); err != nil {
			t.Fatal(err)
		}
	}
	tail, err := OpenTail(path)
	if err != nil {
		t.Fatal(err)
	}
	defer tail.Close()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		got, ok, err := tail.Next()
		if err != nil || !ok || got != tailRecord(i) {
			t.Fatalf("record %d after unlink: got %+v ok=%v err=%v", i, got, ok, err)
		}
	}
	if _, ok, err := tail.Next(); err != nil || ok {
		t.Fatalf("expected dry end, got ok=%v err=%v", ok, err)
	}
}

// TestTailRejectsImpossibleFrame checks a frame that can never become
// intact surfaces as an error instead of spinning forever.
func TestTailRejectsImpossibleFrame(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.wal")
	frame := make([]byte, frameHeaderSize+payloadSize)
	binary.LittleEndian.PutUint32(frame[0:4], payloadSize+1) // wrong length
	binary.LittleEndian.PutUint32(frame[4:8], 12345)
	if err := os.WriteFile(path, frame, 0o644); err != nil {
		t.Fatal(err)
	}
	tail, err := OpenTail(path)
	if err != nil {
		t.Fatal(err)
	}
	defer tail.Close()
	if _, _, err := tail.Next(); err == nil {
		t.Fatal("expected an error on an impossible frame length")
	}
}

// TestMarshalRecordRoundTrip pins the exported payload codec against
// the frame encoder the log itself uses.
func TestMarshalRecordRoundTrip(t *testing.T) {
	rec := Record{Op: OpDelete, OID: 1 << 40, Rect: geom.R(-3.5, 0.25, 9.75, 1e9)}
	p := MarshalRecord(rec)
	if len(p) != PayloadSize {
		t.Fatalf("payload length %d, want %d", len(p), PayloadSize)
	}
	got, ok := UnmarshalRecord(p)
	if !ok || got != rec {
		t.Fatalf("round trip: got %+v ok=%v", got, ok)
	}
	if _, ok := UnmarshalRecord(p[:len(p)-1]); ok {
		t.Fatal("short payload decoded")
	}
	p[0] = 99
	if _, ok := UnmarshalRecord(p); ok {
		t.Fatal("unknown op decoded")
	}
}

// TestWriteHookFailsAppend checks a failing WriteHook surfaces through
// Ticket.Wait.
func TestWriteHookFailsAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "hook.wal")
	fail := false
	l, _, err := Open(path, Options{
		Policy: SyncNever,
		WriteHook: func(off int64, n int) error {
			if fail {
				return os.ErrPermission
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Reserve(tailRecord(1)).Wait(); err != nil {
		t.Fatalf("healthy append failed: %v", err)
	}
	fail = true
	if err := l.Reserve(tailRecord(2)).Wait(); err == nil {
		t.Fatal("expected hook failure")
	}
	fail = false
	l.Close()
}
