package rtree

import (
	"bytes"
	"errors"
	"maps"
	"math/rand"
	"sync"
	"testing"

	"mbrtopo/internal/geom"
	"mbrtopo/internal/pagefile"
)

// TestSnapshotReaderDoesNotBlockWriter pauses a search mid-traversal
// and runs mutations to completion while it is paused: writers must
// not wait for readers, and the paused reader must see exactly the
// pre-mutation version of the tree. All three kinds share the protocol.
func TestSnapshotReaderDoesNotBlockWriter(t *testing.T) {
	for _, mk := range []struct {
		name string
		make func() (searcher, error)
	}{
		{"rtree", func() (searcher, error) { return NewRTree(pagefile.NewMemFile(testPageSize)) }},
		{"rstar", func() (searcher, error) { return NewRStar(pagefile.NewMemFile(testPageSize)) }},
		{"rstar-arena", func() (searcher, error) { return newTestArenaRStar() }},
		{"rplus", func() (searcher, error) { return NewRPlus(pagefile.NewMemFile(testPageSize)) }},
		{"rplus-arena", func() (searcher, error) { return NewRPlusArena(testPageSize) }},
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
			checkInv(t, mk.name, tree)
		})
	}
}

// TestMutationRollbackLeavesTreeUnchanged injects storage faults into
// inserts and checks the strong atomicity property on an R*- and an
// R+-tree: a failed mutation leaves the published tree as it was before
// it — the same entries and size, and the same page count (every page
// the failed mutation allocated is given back).
func TestMutationRollbackLeavesTreeUnchanged(t *testing.T) {
	for name, mk := range map[string]func(pagefile.File) (searcher, error){
		"rstar": func(f pagefile.File) (searcher, error) { return NewRStar(f) },
		"rplus": func(f pagefile.File) (searcher, error) { return NewRPlus(f) },
	} {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(23))
			fired := false
			for trial := 0; trial < 40; trial++ {
				mem := pagefile.NewMemFile(testPageSize)
				fault := pagefile.NewFaultFile(mem)
				tree, err := mk(fault)
				if err != nil {
					t.Fatal(err)
				}
				live := map[uint64]geom.Rect{}
				insert := func(oid uint64) error {
					r := randRect(rng, 100, 5)
					err := tree.Insert(r, oid)
					if err == nil {
						live[oid] = r
					}
					return err
				}
				for i := uint64(0); i < 150; i++ {
					if err := insert(i); err != nil {
						t.Fatal(err)
					}
				}

				// The fault may land on any insert of the run; compare
				// against the tree just before the one that failed.
				fault.FailAfter(1+rng.Intn(25), true, true, trial%2 == 0)
				var pagesBefore int
				var opErr error
				for i := uint64(500); i < 560 && opErr == nil; i++ {
					pagesBefore = mem.NumPages()
					opErr = insert(i)
				}
				if opErr == nil {
					continue // fault landed on nothing fatal this trial
				}
				fired = true
				if !errors.Is(opErr, pagefile.ErrInjected) {
					t.Fatalf("trial %d: unexpected error %v", trial, opErr)
				}
				if got := collectAll(t, tree); !maps.Equal(got, live) || tree.Len() != len(live) {
					t.Fatalf("trial %d: %d entries (Len %d) after rollback, want %d",
						trial, len(got), tree.Len(), len(live))
				}
				if err := tree.CheckInvariants(); err != nil {
					t.Fatalf("trial %d: %v", trial, err)
				}
				if np := mem.NumPages(); np != pagesBefore {
					t.Fatalf("trial %d: %d live pages after rollback, had %d before the failed insert", trial, np, pagesBefore)
				}
			}
			if !fired {
				t.Fatal("no injected fault ever surfaced; harness broken")
			}
		})
	}
}

// TestRPlusUnsplittableInsertLosesNothing: at capacity 4, 64 nested
// squares fill one leaf to its overflow bound. An insert registered
// first in a full leaf to its left, which it divides, and then in that
// bounded leaf must fail with ErrUnsplittable — and leave the tree as
// it was: no object lost, Len, Bounds and invariants unchanged, and a
// byte-equal MBRFLAT1 image.
func TestRPlusUnsplittableInsertLosesNothing(t *testing.T) {
	const pageSize = 168 // capacity 4
	for name, mk := range map[string]func() (*RPlusTree, error){
		"paged": func() (*RPlusTree, error) { return NewRPlus(pagefile.NewMemFile(pageSize)) },
		"arena": func() (*RPlusTree, error) { return NewRPlusArena(pageSize) },
	} {
		t.Run(name, func(t *testing.T) {
			tree, err := mk()
			if err != nil {
				t.Fatal(err)
			}
			live := map[uint64]geom.Rect{}
			insert := func(r geom.Rect, oid uint64) {
				t.Helper()
				if err := tree.Insert(r, oid); err != nil {
					t.Fatalf("insert %d: %v", oid, err)
				}
				live[oid] = r
			}
			insert(geom.R(0, 0, 1, 1), 1)
			insert(geom.R(2, 0, 3, 1), 2)
			for k := 1; k <= 64; k++ {
				d := float64(k)
				insert(geom.R(80-d, 50-d, 80+d, 50+d), uint64(100+k))
			}
			insert(geom.R(0, 2, 1, 3), 3)
			insert(geom.R(2, 2, 3, 3), 4)
			bounds, _ := tree.Bounds()
			image := flatEncode(t, tree, 1)

			if err := tree.Insert(geom.R(1.5, -20, 150, 120), 999); !errors.Is(err, ErrUnsplittable) {
				t.Fatalf("insert 999 = %v, want ErrUnsplittable", err)
			}
			if n := tree.Len(); n != len(live) {
				t.Fatalf("Len = %d, want %d", n, len(live))
			}
			got := collectAll(t, tree)
			for oid, r := range live {
				if got[oid] != r {
					t.Errorf("object %d (%v) is not answered after the failed insert", oid, r)
				}
			}
			if len(got) != len(live) {
				t.Errorf("%d objects answered, want %d", len(got), len(live))
			}
			if b, ok := tree.Bounds(); !ok || b != bounds {
				t.Errorf("Bounds = %v %v, want %v", b, ok, bounds)
			}
			if err := tree.CheckInvariants(); err != nil {
				t.Error(err)
			}
			if !bytes.Equal(flatEncode(t, tree, 1), image) {
				t.Error("the MBRFLAT1 image changed")
			}
		})
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
// order) and every search must be internally consistent (on the
// covering trees, count equals distinct OIDs seen; an R+-tree registers
// an object in several leaves). The arena legs are what catch a reader
// that can reach a slot being installed, or a slot table being grown
// (it starts at 64 slots): either is a data race the detector reports.
func TestSnapshotConcurrentReadersAndWriter(t *testing.T) {
	for name, mk := range map[string]func() (searcher, error){
		"paged":       func() (searcher, error) { return NewRStar(pagefile.NewMemFile(testPageSize)) },
		"arena":       func() (searcher, error) { return newTestArenaRStar() },
		"rplus":       func() (searcher, error) { return NewRPlus(pagefile.NewMemFile(testPageSize)) },
		"rplus-arena": func() (searcher, error) { return NewRPlusArena(testPageSize) },
	} {
		t.Run(name, func(t *testing.T) {
			tree, err := mk()
			if err != nil {
				t.Fatal(err)
			}
			readersBesideWriter(t, tree)
		})
	}
}

func newTestArenaRStar() (*Tree, error) {
	return NewArena(testPageSize, rstarOpts, "R*-tree")
}

func readersBesideWriter(t *testing.T, tree searcher) {
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
				if tree.CoveringNodeRects() && len(seen) != count {
					errs <- errors.New("duplicate OIDs within one snapshot read")
					return
				}
				if len(seen) < last {
					errs <- errors.New("observed size went backwards across snapshots")
					return
				}
				last = len(seen)
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
func collectAll(t *testing.T, tree searcher) map[uint64]geom.Rect {
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
