package wal

import (
	"path/filepath"
	"sync"
	"testing"
)

// TestGroupCommitConcurrentAppends hammers a log from many goroutines
// and checks that every acked record survives reopen, in a replay
// order consistent with each goroutine's append order.
func TestGroupCommitConcurrentAppends(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.wal")
	l, _, err := Open(path, Options{Policy: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	const writers, perWriter = 8, 50
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				oid := uint64(w*perWriter + i + 1)
				if err := l.Reserve(rec(OpInsert, oid)).Wait(); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	st := l.GroupStats()
	if st.Records != writers*perWriter {
		t.Fatalf("stats count %d records, want %d", st.Records, writers*perWriter)
	}
	if st.Commits == 0 || st.Commits > st.Records {
		t.Fatalf("implausible commit count %d for %d records", st.Commits, st.Records)
	}
	if st.MaxBatch == 0 {
		t.Fatal("MaxBatch not tracked")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	_, replayed, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(replayed) != writers*perWriter {
		t.Fatalf("replayed %d records, want %d", len(replayed), writers*perWriter)
	}
	// Per-writer order must be preserved (within one goroutine, OIDs
	// ascend), and nothing may be duplicated or invented.
	lastPer := map[int]uint64{}
	seen := map[uint64]bool{}
	for _, r := range replayed {
		if seen[r.OID] {
			t.Fatalf("record %d replayed twice", r.OID)
		}
		seen[r.OID] = true
		w := int(r.OID-1) / perWriter
		if w < 0 || w >= writers {
			t.Fatalf("replayed record with invented OID %d", r.OID)
		}
		if r.OID <= lastPer[w] {
			t.Fatalf("writer %d's records replayed out of order: %d after %d", w, r.OID, lastPer[w])
		}
		lastPer[w] = r.OID
	}
}

// TestGroupCommitReserveOrdersRecords checks the contract the server
// relies on: replay order equals reservation order, even when tickets
// are waited on in reverse.
func TestGroupCommitReserveOrdersRecords(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.wal")
	l, _, err := Open(path, Options{Policy: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	var tickets []*Ticket
	for i := 1; i <= 20; i++ {
		tickets = append(tickets, l.Reserve(rec(OpInsert, uint64(i))))
	}
	for i := len(tickets) - 1; i >= 0; i-- {
		if err := tickets[i].Wait(); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, replayed, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(replayed) != 20 {
		t.Fatalf("replayed %d records, want 20", len(replayed))
	}
	for i, r := range replayed {
		if r.OID != uint64(i+1) {
			t.Fatalf("slot %d replayed OID %d; order does not match reservation", i, r.OID)
		}
	}
}

// TestGroupCommitBatchAppend checks a multi-record Reserve writes a
// contiguous run and Truncate/Flush interact correctly with open
// batches.
func TestGroupCommitBatchAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.wal")
	l, _, err := Open(path, Options{Policy: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	var batch []Record
	for i := 1; i <= 30; i++ {
		batch = append(batch, rec(OpInsert, uint64(i)))
	}
	if err := l.Reserve(batch...).Wait(); err != nil {
		t.Fatal(err)
	}
	if err := l.Reserve().Wait(); err != nil {
		t.Fatal(err)
	}
	if got := l.Records(); got != 30 {
		t.Fatalf("Records = %d, want 30", got)
	}
	if err := l.Truncate(); err != nil {
		t.Fatal(err)
	}
	// Reservations made after Truncate land at the start of the log.
	tk := l.Reserve(rec(OpDelete, 99))
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := tk.Wait(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, replayed, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(replayed) != 1 || replayed[0].OID != 99 || replayed[0].Op != OpDelete {
		t.Fatalf("replayed %v, want the single post-truncate delete", replayed)
	}
}

// TestGroupCommitClosedLog checks Reserve and Wait surface closure.
func TestGroupCommitClosedLog(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.wal")
	l, _, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Reserve(rec(OpInsert, 1)).Wait(); err == nil {
		t.Fatal("reserving on a closed log succeeded")
	}
	if err := l.Reserve(rec(OpInsert, 1)).Wait(); err == nil {
		t.Fatal("appending on a closed log succeeded")
	}
}
