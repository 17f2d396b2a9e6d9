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

// next reads the tail once and decodes what it returned.
func next(t *testing.T, tail *Tail) ([]Record, error) {
	t.Helper()
	frames, n, err := tail.Next()
	if len(frames) != n*frameSize {
		t.Fatalf("Next returned %d bytes for %d records", len(frames), n)
	}
	var recs []Record
	for ; len(frames) > 0; frames = frames[frameSize:] {
		rec, ok := decode(frames[frameHeaderSize:frameSize])
		if !ok {
			t.Fatalf("Next returned an undecodable frame %x", frames[:frameSize])
		}
		recs = append(recs, rec)
	}
	return recs, err
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
	tail, err := OpenTail(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer tail.Close()

	if got, err := next(t, tail); err != nil || len(got) != 0 {
		t.Fatalf("empty log: Next = %v err=%v, want dry", got, err)
	}
	for i := 0; i < 20; i++ {
		want := tailRecord(i)
		if err := l.Reserve(want).Wait(); err != nil {
			t.Fatal(err)
		}
		got, err := next(t, tail)
		if err != nil || len(got) != 1 || got[0] != want {
			t.Fatalf("record %d: Next = %+v err=%v, want %+v", i, got, err, want)
		}
		if got, err := next(t, tail); err != nil || len(got) != 0 {
			t.Fatalf("record %d: expected dry after drain, got %v err=%v", i, got, err)
		}
	}
	if want := int64(20 * (frameHeaderSize + payloadSize)); tail.off != want {
		t.Fatalf("offset %d, want %d", tail.off, want)
	}
	// A tail opened at a record position starts there, and one past the
	// end waits for the record to land.
	for from := range 22 {
		late, err := OpenTail(path, uint64(from))
		if err != nil {
			t.Fatal(err)
		}
		got, err := next(t, late)
		if err != nil || len(got) != max(20-from, 0) || len(got) > 0 && got[0] != tailRecord(from) {
			t.Fatalf("tail from %d: %d records (%v), want %d from record %d", from, len(got), err, max(20-from, 0), from)
		}
		late.Close()
	}
	if err := l.Reserve(tailRecord(20), tailRecord(21)).Wait(); err != nil {
		t.Fatal(err)
	}
	if got, err := next(t, tail); err != nil || len(got) != 2 || got[1] != tailRecord(21) {
		t.Fatalf("a batch of two: Next = %+v err=%v", got, err)
	}
}

// TestTailTornFrameBecomesIntact simulates a mid-flush read at every
// truncation point of a frame: the tail must report "not yet" (never
// an error, never a wrong record) until the full frame is present.
func TestTailTornFrameBecomesIntact(t *testing.T) {
	dir := t.TempDir()
	rec := tailRecord(7)
	full := appendRecord(nil, rec)
	for cut := 0; cut < len(full); cut++ {
		path := filepath.Join(dir, "torn.wal")
		if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		tail, err := OpenTail(path, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := next(t, tail); err != nil || len(got) != 0 {
			t.Fatalf("cut %d: Next = %v err=%v, want dry", cut, got, err)
		}
		// Complete the frame: the same tail must now decode it.
		if err := os.WriteFile(path, full, 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := next(t, tail)
		if err != nil || len(got) != 1 || got[0] != rec {
			t.Fatalf("cut %d after completion: got %+v err=%v", cut, got, err)
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
	tail, err := OpenTail(path, 0)
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
	got, err := next(t, tail)
	if err != nil || len(got) != 5 {
		t.Fatalf("after unlink: %d records, err=%v, want 5", len(got), err)
	}
	for i := range got {
		if got[i] != tailRecord(i) {
			t.Fatalf("record %d after unlink: got %+v", i, got[i])
		}
	}
	if got, err := next(t, tail); err != nil || len(got) != 0 {
		t.Fatalf("expected dry end, got %v err=%v", got, err)
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
	tail, err := OpenTail(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer tail.Close()
	if _, _, err := tail.Next(); err == nil {
		t.Fatal("expected an error on an impossible frame length")
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
