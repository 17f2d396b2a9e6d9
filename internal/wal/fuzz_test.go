package wal

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzWALReplay writes a valid record prefix followed by arbitrary
// suffix bytes and checks the recovery contract: Open never panics,
// replays at least the intact prefix in order, truncates whatever it
// rejects, and leaves the log append-ready. A suffix that happens to
// form intact frames is legitimately replayed too (it is
// indistinguishable from real records), so the assertions are on the
// prefix and on self-consistency, not on exact record counts.
//
// Input shape: data[0] = number of prefix records (mod 8), data[1:] =
// raw bytes appended after the valid prefix.
func FuzzWALReplay(f *testing.F) {
	f.Add([]byte{3})                                                       // clean log, no tail
	f.Add([]byte{0})                                                       // empty log
	f.Add([]byte{5, 0x29, 0x00, 0x00, 0x00})                               // torn header
	f.Add([]byte{2, 0x29, 0x00, 0x00, 0x00, 0xde, 0xad, 0xbe, 0xef, 0x01}) // torn payload
	f.Add([]byte{1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})       // garbage length
	f.Add(append([]byte{4}, encode(Record{Op: OpInsert, OID: 7})...))      // valid extra frame
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		prefixCount := int(data[0]) % 8
		suffix := data[1:]

		var want []Record
		var raw []byte
		for i := 0; i < prefixCount; i++ {
			op := OpInsert
			if i%2 == 1 {
				op = OpDelete
			}
			r := rec(op, uint64(i+1))
			want = append(want, r)
			raw = append(raw, encode(r)...)
		}
		raw = append(raw, suffix...)
		path := filepath.Join(t.TempDir(), "f.wal")
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}

		l, got, err := Open(path, Options{})
		if err != nil {
			t.Fatalf("Open failed on torn log: %v", err)
		}
		if len(got) < len(want) {
			t.Fatalf("replayed %d records, lost part of the %d-record intact prefix", len(got), len(want))
		}
		for i, w := range want {
			if got[i] != w {
				t.Fatalf("record %d replayed as %+v, want %+v", i, got[i], w)
			}
		}
		if sz := l.Size(); sz != int64(len(got))*(frameHeaderSize+payloadSize) {
			t.Fatalf("size %d inconsistent with %d replayed records", sz, len(got))
		}

		// The log must be append-ready: a new record lands cleanly and
		// a reopen sees exactly replayed + appended.
		extra := rec(OpInsert, 4242)
		if err := l.Reserve(extra).Wait(); err != nil {
			t.Fatalf("append after recovery: %v", err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		l2, got2, err := Open(path, Options{})
		if err != nil {
			t.Fatalf("reopen after recovery: %v", err)
		}
		defer l2.Close()
		if len(got2) != len(got)+1 {
			t.Fatalf("reopen replayed %d records, want %d", len(got2), len(got)+1)
		}
		for i := range got {
			if got2[i] != got[i] {
				t.Fatalf("record %d changed across reopen", i)
			}
		}
		if got2[len(got)] != extra {
			t.Fatalf("appended record replayed as %+v", got2[len(got)])
		}
	})
}
