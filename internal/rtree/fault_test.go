package rtree

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"

	"mbrtopo/internal/geom"
	"mbrtopo/internal/pagefile"
)

// TestFaultInjectionSurfacesErrors arms storage faults at many points
// during inserts, deletes and searches on every tree variant, and
// checks that the error is surfaced (wrapped ErrInjected), never a
// panic, and that subsequent operations still behave sanely.
func TestFaultInjectionSurfacesErrors(t *testing.T) {
	for _, variant := range []string{"rtree", "rstar", "rplus"} {
		t.Run(variant, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			anyFired := false
			for trial := 0; trial < 60; trial++ {
				fault := pagefile.NewFaultFile(pagefile.NewMemFile(testPageSize))
				var tree searcher
				var err error
				switch variant {
				case "rtree":
					tree, err = NewRTree(fault)
				case "rstar":
					tree, err = NewRStar(fault)
				default:
					tree, err = NewRPlus(fault)
				}
				if err != nil {
					t.Fatal(err)
				}
				// Load cleanly first.
				for i := uint64(1); i <= 120; i++ {
					if err := tree.Insert(randRect(rng, 100, 6), i); err != nil {
						t.Fatal(err)
					}
				}
				// Arm a fault a few operations ahead, then hammer.
				fault.FailAfter(1+rng.Intn(30), trial%3 != 0, trial%3 != 1, trial%3 != 2)
				var opErr error
				for i := uint64(200); i <= 260 && opErr == nil; i++ {
					opErr = tree.Insert(randRect(rng, 100, 6), i)
				}
				if opErr == nil {
					all := func(geom.Rect) bool { return true }
					opErr = tree.Search(all, all, func(geom.Rect, uint64) bool { return true })
				}
				if fault.Fired() {
					anyFired = true
					if opErr == nil {
						t.Fatalf("trial %d: fault fired but no operation reported it", trial)
					}
					if !errors.Is(opErr, pagefile.ErrInjected) {
						t.Fatalf("trial %d: error does not wrap the injected fault: %v", trial, opErr)
					}
				}
				// The tree must still answer searches afterwards (no armed
				// fault remains).
				count := 0
				all := func(geom.Rect) bool { return true }
				if err := tree.Search(all, all, func(geom.Rect, uint64) bool {
					count++
					return true
				}); err != nil {
					t.Fatalf("trial %d: post-fault search failed: %v", trial, err)
				}
				if count == 0 {
					t.Fatalf("trial %d: post-fault search found nothing", trial)
				}
			}
			if !anyFired {
				t.Fatal("no fault ever fired; injection harness broken")
			}
		})
	}
}

// TestConcurrentSearchers runs parallel searches, kNN lookups and
// interleaved writes under the race detector.
func TestConcurrentSearchers(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	rt, err := NewRTree(pagefile.NewMemFile(testPageSize))
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
