package rtree

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"runtime"
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
		{"rtree", func() (searcher, error) { return newTestRTree() }},
		{"rstar", func() (searcher, error) { return newTestRStar() }},
		{"rplus", func() (searcher, error) { return NewRPlusArena(testPageSize) }},
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

// livePages is what a tree's nodes occupy: pages allocated minus pages
// freed.
func livePages(tree interface{ IOStats() pagefile.Stats }) uint64 {
	io := tree.IOStats()
	return io.Allocs - io.Frees
}

// TestMutationRollbackLeavesTreeUnchanged checks the strong atomicity
// property on an R*- and an R+-tree: a mutation that fails part-way
// leaves the published tree as it was before it — the same entries,
// size and image, and the same live page count (every node the failed
// mutation allocated is given back). The R*-tree's insert fails at the
// first split it needs once its split policy is one it does not know,
// after shadowing a path and, with forced reinsertion, moving entries;
// the R+-tree's fails at the overflow bound of a leaf of nested squares
// (capacity 4, so 64 entries).
func TestMutationRollbackLeavesTreeUnchanged(t *testing.T) {
	for name, mk := range map[string]func() (kindTree, func(i int) geom.Rect){
		"rstar": func() (kindTree, func(int) geom.Rect) {
			rng := rand.New(rand.NewSource(23))
			tree, err := newTestRStar()
			if err != nil {
				t.Fatal(err)
			}
			for i := uint64(0); i < 150; i++ {
				if err := tree.Insert(randRect(rng, 100, 5), i); err != nil {
					t.Fatal(err)
				}
			}
			tree.opts.Split = SplitAlgorithm(99)
			return tree, func(int) geom.Rect { return randRect(rng, 100, 5) }
		},
		"rplus": func() (kindTree, func(int) geom.Rect) {
			tree, err := NewRPlusArena(168)
			if err != nil {
				t.Fatal(err)
			}
			return tree, func(i int) geom.Rect {
				d := float64(i + 1)
				return geom.R(50-d, 50-d, 50+d, 50+d)
			}
		},
	} {
		t.Run(name, func(t *testing.T) {
			tree, next := mk()
			live := collectAll(t, tree)
			for i := 0; ; i++ {
				if i == 1000 {
					t.Fatal("no insert failed")
				}
				pages, image := livePages(tree), flatEncode(t, tree, 1)
				oid := uint64(1000 + i)
				r := next(i)
				err := tree.Insert(r, oid)
				if err == nil {
					live[oid] = r
					continue
				}
				if name == "rplus" && !errors.Is(err, ErrUnsplittable) {
					t.Fatalf("insert %d: %v, want ErrUnsplittable", i, err)
				}
				if got := collectAll(t, tree); !maps.Equal(got, live) || tree.Len() != len(live) {
					t.Fatalf("%d entries (Len %d) after the failed insert, want %d", len(got), tree.Len(), len(live))
				}
				if err := tree.CheckInvariants(); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(flatEncode(t, tree, 1), image) {
					t.Fatal("the MBRFLAT1 image changed")
				}
				if np := livePages(tree); np != pages {
					t.Fatalf("%d live pages after the failed insert, had %d before it", np, pages)
				}
				return
			}
		})
	}
}

// TestRPlusUnsplittableInsertLosesNothing: at capacity 4, 64 nested
// squares fill one leaf to its overflow bound. An insert registered
// first in a full leaf to its left, which it divides, and then in that
// bounded leaf must fail with ErrUnsplittable — and leave the tree as
// it was: no object lost, Len, Bounds and invariants unchanged, a
// byte-equal MBRFLAT1 image, and the pages the divide allocated given
// back.
func TestRPlusUnsplittableInsertLosesNothing(t *testing.T) {
	const pageSize = 168 // capacity 4
	for name, mk := range map[string]func() (*RPlusTree, error){
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
			pages := livePages(tree)

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
			if np := livePages(tree); np != pages {
				t.Errorf("%d live pages after the refused insert, had %d before it", np, pages)
			}
		})
	}
}

// TestHeldSnapshotOutlivesRewrites: a version lives exactly as long as
// some reader holds its root. A reader loads a snapshot; a writer then
// moves every object twice — each round replaces every node the round
// started from — while a second reader walks the held version, and the
// garbage collector runs twice. The held snapshot must still give the
// answers, stats and MBRFLAT1 bytes it gave when it was loaded. The page
// counters must say what the live tree holds: allocated minus freed is
// the page cost of the nodes its published root reaches.
func TestHeldSnapshotOutlivesRewrites(t *testing.T) {
	for name, mk := range map[string]func() (kindTree, error){
		"rstar": func() (kindTree, error) { return newTestRStar() },
		"rplus": func() (kindTree, error) { return NewRPlusArena(testPageSize) },
	} {
		t.Run(name, func(t *testing.T) {
			tree, err := mk()
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(31))
			live := map[uint64]geom.Rect{}
			for oid := uint64(1); oid <= 300; oid++ {
				live[oid] = randRect(rng, 100, 5)
				if err := tree.Insert(live[oid], oid); err != nil {
					t.Fatal(err)
				}
			}
			c := tree.(interface{ treeCore() *core }).treeCore()
			held := c.cur.Load()
			read := func() (string, []byte, error) {
				var answers []Hit
				ts, err := traverse(context.Background(), c.st, held.root, everything, everything, func(h Hit) bool {
					answers = append(answers, Hit{Rect: h.Rect, OID: h.OID})
					return true
				})
				if err != nil {
					return "", nil, err
				}
				var image bytes.Buffer
				err = writeFlat(&image, c.st, held.root, c.covering, c.name, 1, held.size, held.depth)
				return fmt.Sprint(answers, ts), image.Bytes(), err
			}
			wantAnswers, wantImage, err := read()
			if err != nil {
				t.Fatal(err)
			}

			stop := make(chan struct{})
			errs := make(chan error, 1)
			go func() {
				defer close(errs)
				for {
					select {
					case <-stop:
						return
					default:
					}
					answers, image, err := read()
					if err == nil && (answers != wantAnswers || !bytes.Equal(image, wantImage)) {
						err = errors.New("the held snapshot changed under a reader")
					}
					if err != nil {
						errs <- err
						return
					}
				}
			}()
			for round := 0; round < 2; round++ {
				before := liveNodes(t, tree)
				for oid := uint64(1); oid <= 300; oid++ {
					to := randRect(rng, 100, 5)
					if err := move(tree, live[oid], to, oid); err != nil {
						t.Fatal(err)
					}
					live[oid] = to
				}
				for n := range liveNodes(t, tree) {
					if before[n] {
						t.Fatalf("round %d left a level-%d node of the version it started from in the tree", round, n.level)
					}
				}
			}
			close(stop)
			if err := <-errs; err != nil {
				t.Fatal(err)
			}
			runtime.GC()
			runtime.GC()
			answers, image, err := read()
			if err != nil {
				t.Fatal(err)
			}
			if answers != wantAnswers || !bytes.Equal(image, wantImage) {
				t.Fatal("the held snapshot no longer gives what it gave when it was loaded")
			}
			if got := collectAll(t, tree); !maps.Equal(got, live) {
				t.Fatalf("the live tree answers %d objects, want %d", len(got), len(live))
			}
			checkInv(t, name, tree)
			var pages uint64
			for n := range liveNodes(t, tree) {
				pages += uint64(n.cost)
			}
			if np := livePages(tree); np != pages {
				t.Fatalf("the counters say %d live pages, the tree's nodes cost %d", np, pages)
			}
		})
	}
}

// TestSnapshotConcurrentReadersAndWriter is a -race smoke: readers
// query while a writer inserts. Each reader's observed sizes must be
// monotonically non-decreasing (snapshots are published in insertion
// order) and every search must be internally consistent (on the
// covering trees, count equals distinct OIDs seen; an R+-tree registers
// an object in several leaves). These are what catch a reader that can
// reach a node a mutation is still changing: a data race the detector
// reports.
func TestSnapshotConcurrentReadersAndWriter(t *testing.T) {
	for name, mk := range map[string]func() (searcher, error){
		"arena":       func() (searcher, error) { return newTestRStar() },
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

// TestConcurrentSearchers runs parallel searches, kNN lookups and
// interleaved writes under the race detector.
func TestConcurrentSearchers(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	rt, err := newTestRTree()
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 500; i++ {
		if err := rt.Insert(randRect(rng, 100, 4), i); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			local := rand.New(rand.NewSource(seed))
			for i := 0; i < 50; i++ {
				w := randRect(local, 100, 10)
				pred := func(r geom.Rect) bool { return r.Intersects(w) }
				if err := rt.Search(pred, pred, func(geom.Rect, uint64) bool { return true }); err != nil {
					errs <- err
					return
				}
				if _, _, err := rt.NearestCtx(context.Background(), geom.Point{X: local.Float64() * 100, Y: local.Float64() * 100}, 5); err != nil {
					errs <- err
					return
				}
			}
		}(int64(g))
	}
	// A concurrent writer.
	wg.Add(1)
	go func() {
		defer wg.Done()
		local := rand.New(rand.NewSource(99))
		for i := uint64(1000); i < 1100; i++ {
			if err := rt.Insert(randRect(local, 100, 4), i); err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := rt.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
