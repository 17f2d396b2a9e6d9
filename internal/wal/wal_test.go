package wal

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mbrtopo/internal/geom"
)

func rec(op Op, oid uint64) Record {
	f := float64(oid)
	return Record{Op: op, OID: oid, Rect: geom.R(f, f+1, f+10, f+11)}
}

func buildLog(t *testing.T, path string, n int) []Record {
	t.Helper()
	l, replayed, err := Open(path, Options{Policy: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if len(replayed) != 0 {
		t.Fatalf("fresh log replayed %d records", len(replayed))
	}
	var want []Record
	for i := 0; i < n; i++ {
		op := OpInsert
		if i%3 == 2 {
			op = OpDelete
		}
		r := rec(op, uint64(i+1))
		if err := l.Reserve(r).Wait(); err != nil {
			t.Fatal(err)
		}
		want = append(want, r)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return want
}

func TestLogRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.wal")
	want := buildLog(t, path, 7)

	l, got, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d: %+v != %+v", i, got[i], want[i])
		}
	}
	if l.Records() != uint64(len(want)) {
		t.Fatalf("Records() = %d", l.Records())
	}
	// The reopened log accepts appends.
	if err := l.Reserve(rec(OpInsert, 99)).Wait(); err != nil {
		t.Fatal(err)
	}
	if l.Records() != uint64(len(want)+1) {
		t.Fatalf("Records() after append = %d", l.Records())
	}
}

// TestLogTornTailAtEveryByte simulates a crash at every possible write
// position: the log truncated to L bytes must replay exactly the
// records whose frames fit entirely within L, and must be repaired to
// that boundary.
func TestLogTornTailAtEveryByte(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "full.wal")
	want := buildLog(t, path, 5)
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	frame := int64(frameHeaderSize + payloadSize)
	if int64(len(full)) != frame*int64(len(want)) {
		t.Fatalf("unexpected log size %d", len(full))
	}

	for cut := int64(0); cut <= int64(len(full)); cut++ {
		p := filepath.Join(dir, "cut.wal")
		if err := os.WriteFile(p, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		l, got, err := Open(p, Options{})
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		wantN := int(cut / frame)
		if len(got) != wantN {
			t.Fatalf("cut %d: replayed %d records, want %d", cut, len(got), wantN)
		}
		for i := 0; i < wantN; i++ {
			if got[i] != want[i] {
				t.Fatalf("cut %d: record %d mismatch", cut, i)
			}
		}
		if l.Size() != frame*int64(wantN) {
			t.Fatalf("cut %d: repaired size %d", cut, l.Size())
		}
		// Appending after repair lands on a clean frame boundary.
		if err := l.Reserve(rec(OpInsert, 1000)).Wait(); err != nil {
			t.Fatalf("cut %d: append after repair: %v", cut, err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		l2, got2, err := Open(p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if len(got2) != wantN+1 || got2[wantN].OID != 1000 {
			t.Fatalf("cut %d: post-repair append not replayed (%d records)", cut, len(got2))
		}
		l2.Close()
	}
}

func TestLogCorruptTailAndMiddle(t *testing.T) {
	dir := t.TempDir()
	frame := frameHeaderSize + payloadSize

	// A flipped byte in the last record drops only that record.
	path := filepath.Join(dir, "tail.wal")
	buildLog(t, path, 3)
	data, _ := os.ReadFile(path)
	data[2*frame+frameHeaderSize+4] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	l, got, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("corrupt tail: replayed %d records, want 2", len(got))
	}
	l.Close()

	// A flipped byte in the middle tears everything from there on: the
	// suffix was never acknowledged as durable beyond the tear.
	path = filepath.Join(dir, "mid.wal")
	buildLog(t, path, 3)
	data, _ = os.ReadFile(path)
	data[frameHeaderSize+1] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	l, got, err = Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("corrupt first record: replayed %d records, want 0", len(got))
	}
	if st, _ := os.Stat(path); st.Size() != 0 {
		t.Fatalf("log not repaired to the tear: %d bytes", st.Size())
	}
	l.Close()
}

func TestLogTruncate(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.wal")
	l, _, err := Open(path, Options{Policy: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 0; i < 4; i++ {
		if err := l.Reserve(rec(OpInsert, uint64(i))).Wait(); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Truncate(); err != nil {
		t.Fatal(err)
	}
	if l.Records() != 0 || l.Size() != 0 {
		t.Fatalf("truncate left records=%d size=%d", l.Records(), l.Size())
	}
	// Records appended after a truncate replay alone.
	if err := l.Reserve(rec(OpDelete, 42)).Wait(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, got, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].OID != 42 || got[0].Op != OpDelete {
		t.Fatalf("post-truncate replay: %+v", got)
	}
}

func TestSyncPolicies(t *testing.T) {
	if _, err := ParseSyncPolicy("bogus"); err == nil {
		t.Fatal("bogus policy parsed")
	}
	// The retired policy's error must name the two that remain.
	if _, err := ParseSyncPolicy("interval"); err == nil ||
		!strings.Contains(err.Error(), "always") || !strings.Contains(err.Error(), "never") {
		t.Fatalf("interval: %v, want an error naming always and never", err)
	}
	for _, s := range []string{"always", "never"} {
		p, err := ParseSyncPolicy(s)
		if err != nil {
			t.Fatal(err)
		}
		if p.String() != s {
			t.Fatalf("round trip %q → %q", s, p)
		}
		path := filepath.Join(t.TempDir(), s+".wal")
		l, _, err := Open(path, Options{Policy: p})
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Reserve(rec(OpInsert, 1)).Wait(); err != nil {
			t.Fatal(err)
		}
		if err := l.Sync(); err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
