package rtree

import (
	"errors"
	"math/rand"
	"sync"
	"testing"

	"mbrtopo/internal/geom"
	"mbrtopo/internal/pagefile"
)

// TestSnapshotReaderDoesNotBlockWriter pauses a search mid-traversal
// and runs mutations to completion while it is paused: writers must
// not wait for readers, and the paused reader must see exactly the
// pre-mutation version of the tree.
func TestSnapshotReaderDoesNotBlockWriter(t *testing.T) {
	for _, mk := range []struct {
		name string
		make func() (*Tree, error)
	}{
		{"rtree", func() (*Tree, error) { return NewRTree(pagefile.NewMemFile(testPageSize)) }},
		{"rstar", func() (*Tree, error) { return NewRStar(pagefile.NewMemFile(testPageSize)) }},
		{"rstar-arena", func() (*Tree, error) { return newTestArenaRStar() }},
	} {
		t.Run(mk.name, func(t *testing.T) {
			tree, err := mk.make()
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(11))
			rects := make([]geom.Rect, 200)
			for i := range rects {
				rects[i] = randRect(rng, 100, 5)
				if err := tree.Insert(rects[i], uint64(i)); err != nil {
					t.Fatal(err)
				}
			}

			started := make(chan struct{})
			unblock := make(chan struct{})
			got := map[uint64]bool{}
			done := make(chan error, 1)
			go func() {
				first := true
				all := func(geom.Rect) bool { return true }
				done <- tree.Search(all, all, func(_ geom.Rect, oid uint64) bool {
					if first {
						first = false
						close(started)
						<-unblock
					}
					got[oid] = true
					return true
				})
			}()

			<-started
			// Mutations must complete while the reader is paused. If the
			// reader still held a lock the writer needs, this would
			// deadlock (the reader resumes only after the writes finish).
			if err := tree.Insert(geom.R(1, 1, 2, 2), 999); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 50; i++ {
				if err := tree.Delete(rects[i], uint64(i)); err != nil {
					t.Fatal(err)
				}
			}
			close(unblock)
			if err := <-done; err != nil {
				t.Fatal(err)
			}

			// The paused reader saw the snapshot from before the writes:
			// all 200 original entries, no 999.
			if len(got) != 200 {
				t.Fatalf("paused reader saw %d entries, want the 200 pre-mutation ones", len(got))
			}
			if got[999] {
				t.Fatal("paused reader observed an entry inserted after its snapshot")
			}
			for i := 0; i < 200; i++ {
				if !got[uint64(i)] {
					t.Fatalf("paused reader missing pre-mutation entry %d", i)
				}
			}
			// A fresh reader sees the post-mutation version.
			if n := tree.Len(); n != 151 {
				t.Fatalf("Len = %d, want 151", n)
			}
			if err := tree.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestMutationRollbackLeavesTreeUnchanged injects storage faults into
// inserts and checks the strong atomicity property: a failed mutation
// leaves the published tree byte-identical to the tree before it — the
// same result set, size, and page count (every page the failed
// mutation allocated is reclaimed).
func TestMutationRollbackLeavesTreeUnchanged(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	fired := false
	for trial := 0; trial < 40; trial++ {
		mem := pagefile.NewMemFile(testPageSize)
		fault := pagefile.NewFaultFile(mem)
		tree, err := NewRStar(fault)
		if err != nil {
			t.Fatal(err)
		}
		for i := uint64(0); i < 150; i++ {
			if err := tree.Insert(randRect(rng, 100, 5), i); err != nil {
				t.Fatal(err)
			}
		}
		before := collectAll(t, tree)
		pagesBefore := mem.NumPages()

		fault.FailAfter(1+rng.Intn(25), true, true, trial%2 == 0)
		var opErr error
		for i := uint64(500); i < 560 && opErr == nil; i++ {
			opErr = tree.Insert(randRect(rng, 100, 5), i)
		}
		if opErr == nil {
			continue // fault landed on nothing fatal this trial
		}
		fired = true
		if !errors.Is(opErr, pagefile.ErrInjected) {
			t.Fatalf("trial %d: unexpected error %v", trial, opErr)
		}

		// Roll back the partial prefix of successful inserts to make the
		// comparison exact: only the failed insert must be invisible.
		after := collectAll(t, tree)
		for oid, r := range after {
			if _, ok := before[oid]; ok {
				continue
			}
			if err := tree.Delete(r, oid); err != nil {
				t.Fatalf("trial %d: deleting successful prefix insert %d: %v", trial, oid, err)
			}
		}
		final := collectAll(t, tree)
		if len(final) != len(before) {
			t.Fatalf("trial %d: %d entries after rollback, want %d", trial, len(final), len(before))
		}
		for oid, r := range before {
			if final[oid] != r {
				t.Fatalf("trial %d: entry %d is %v after rollback, want %v", trial, oid, final[oid], r)
			}
		}
		if err := tree.CheckInvariants(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// Page accounting: everything the failed mutation allocated must
		// have been freed again (deletes may shrink the tree further).
		if np := mem.NumPages(); np > pagesBefore {
			t.Fatalf("trial %d: %d live pages after rollback, had %d before the failed insert", trial, np, pagesBefore)
		}
	}
	if !fired {
		t.Fatal("no injected fault ever surfaced; harness broken")
	}
}

// TestSnapshotReclamationWaitsForReaders checks that pages retired by
// mutations are not physically freed while an older snapshot is
// pinned, and are freed once the pin is released.
func TestSnapshotReclamationWaitsForReaders(t *testing.T) {
	mem := pagefile.NewMemFile(testPageSize)
	tree, err := NewRTree(mem)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(31))
	for i := uint64(0); i < 300; i++ {
		if err := tree.Insert(randRect(rng, 100, 5), i); err != nil {
			t.Fatal(err)
		}
	}

	s := tree.acquire()
	pinned := mem.NumPages()
	// Every insert copy-on-writes its root-to-leaf path; with the old
	// snapshot pinned none of the superseded pages may be reclaimed.
	for i := uint64(1000); i < 1100; i++ {
		if err := tree.Insert(randRect(rng, 100, 5), i); err != nil {
			t.Fatal(err)
		}
	}
	during := mem.NumPages()
	if during <= pinned {
		t.Fatalf("page count %d did not grow past %d while a snapshot was pinned", during, pinned)
	}
	tree.release(s)
	after := mem.NumPages()
	if after >= during {
		t.Fatalf("releasing the snapshot reclaimed nothing: %d pages before, %d after", during, after)
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	// Steady state: with no reader pinning old snapshots, churn must
	// not grow the file (retired pages are recycled at publication).
	base := mem.NumPages()
	for round := 0; round < 5; round++ {
		for i := uint64(0); i < 100; i++ {
			r := randRect(rng, 100, 5)
			if err := tree.Insert(r, 5000+i); err != nil {
				t.Fatal(err)
			}
			if err := tree.Delete(r, 5000+i); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Node fill factors drift a little under churn; a genuine leak
	// would grow by the whole shadowed path per insert (hundreds of
	// pages here).
	if np := mem.NumPages(); np > base+10 {
		t.Fatalf("steady-state churn leaked pages: %d live, started at %d", np, base)
	}
}

// TestSnapshotConcurrentReadersAndWriter is a -race smoke: readers
// query while a writer inserts. Each reader's observed sizes must be
// monotonically non-decreasing (snapshots are published in insertion
// order) and every search must be internally consistent (count equals
// distinct OIDs seen). The arena leg is what catches a reader that can
// reach a slot being installed, or a slot table being grown (it starts
// at 64 slots): either is a data race the detector reports.
func TestSnapshotConcurrentReadersAndWriter(t *testing.T) {
	t.Run("paged", func(t *testing.T) {
		tree, err := NewRStar(pagefile.NewMemFile(testPageSize))
		if err != nil {
			t.Fatal(err)
		}
		readersBesideWriter(t, tree)
	})
	t.Run("arena", func(t *testing.T) {
		tree, err := newTestArenaRStar()
		if err != nil {
			t.Fatal(err)
		}
		readersBesideWriter(t, tree)
	})
}

func newTestArenaRStar() (*Tree, error) {
	return NewArena(testPageSize, rstarOpts, "R*-tree")
}

func readersBesideWriter(t *testing.T, tree *Tree) {
	const total = 400
	rng := rand.New(rand.NewSource(41))
	rects := make([]geom.Rect, total)
	for i := range rects {
		rects[i] = randRect(rng, 100, 5)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan error, 8)
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := -1
			for {
				select {
				case <-stop:
					return
				default:
				}
				seen := map[uint64]bool{}
				count := 0
				all := func(geom.Rect) bool { return true }
				if err := tree.Search(all, all, func(_ geom.Rect, oid uint64) bool {
					seen[oid] = true
					count++
					return true
				}); err != nil {
					errs <- err
					return
				}
				if len(seen) != count {
					errs <- errors.New("duplicate OIDs within one snapshot read")
					return
				}
				if count < last {
					errs <- errors.New("observed size went backwards across snapshots")
					return
				}
				last = count
			}
		}()
	}
	for i, r := range rects {
		if err := tree.Insert(r, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	if n := tree.Len(); n != total {
		t.Fatalf("Len = %d, want %d", n, total)
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// collectAll returns every stored (oid, rect) pair.
func collectAll(t *testing.T, tree *Tree) map[uint64]geom.Rect {
	t.Helper()
	out := map[uint64]geom.Rect{}
	all := func(geom.Rect) bool { return true }
	if err := tree.Search(all, all, func(r geom.Rect, oid uint64) bool {
		out[oid] = r
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return out
}
