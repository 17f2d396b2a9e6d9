package rtree_test

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"

	"mbrtopo/internal/geom"
	"mbrtopo/internal/mbr"
	"mbrtopo/internal/rtree"
	"mbrtopo/internal/workload"
)

// TestRPlusGrowthRefusedWithinBudget loads medium rectangles into an
// R+-tree of capacity 4, one by one, until it refuses one for its
// leaf-entry budget — which must come before the data run out and
// while the live heap is small — and then requires the tree unchanged
// by the refusal, which it repeats, its answers equal to brute force
// over what it took, and its structure intact (CheckInvariants).
func TestRPlusGrowthRefusedWithinBudget(t *testing.T) {
	const heapBound = 64 << 20
	tree, err := rtree.NewRPlusArena(168)
	if err != nil {
		t.Fatal(err)
	}
	items := workload.NewDataset(workload.Medium, 20000, 0, 1995).Items
	var took []rtree.Record
	var refused error
	for _, it := range items {
		if refused = tree.Insert(it.Rect, it.OID); refused != nil {
			break
		}
		took = append(took, rtree.Record{Rect: it.Rect, OID: it.OID})
	}
	if !errors.Is(refused, rtree.ErrUnsplittable) || !strings.Contains(fmt.Sprint(refused), "budget of 48 per registration") {
		t.Fatalf("%d of %d medium rectangles taken, then %v; want a refusal naming the budget", len(took), len(items), refused)
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if ms.HeapAlloc > heapBound {
		t.Fatalf("refused at %d registrations with %d MiB live, over %d MiB", len(took), ms.HeapAlloc>>20, heapBound>>20)
	}
	t.Logf("refused registration %d with %d MiB live", len(took)+1, ms.HeapAlloc>>20)

	height := tree.Height()
	b, _ := tree.Bounds()
	next := items[len(took)]
	if err := tree.Insert(next.Rect, next.OID); !errors.Is(err, rtree.ErrUnsplittable) {
		t.Fatalf("the refused registration again: %v", err)
	}
	if after, _ := tree.Bounds(); tree.Len() != len(took) || tree.Height() != height || after != b {
		t.Fatalf("after the refusals: Len %d, height %d, bounds %v; want %d, %d, %v", tree.Len(), tree.Height(), after, len(took), height, b)
	}
	for _, w := range []geom.Rect{geom.R(0, 0, 1000, 1000), geom.R(400, 420, 460, 470), geom.R(900, 10, 990, 80)} {
		var want, got []string
		for _, r := range took {
			if r.Rect.Intersects(w) {
				want = append(want, fmt.Sprint(r))
			}
		}
		hits := mbr.Func(func(r geom.Rect) bool { return r.Intersects(w) })
		if _, err := tree.SearchPreds(context.Background(), hits, hits, rtree.Registrations(func(l rtree.Leaf) bool {
			for i := range l.Len() {
				h := l.Hit(i)
				got = append(got, fmt.Sprint(rtree.Record{Rect: h.Rect, OID: h.OID}))
			}
			return true
		})); err != nil {
			t.Fatal(err)
		}
		slices.Sort(want)
		slices.Sort(got)
		if !slices.Equal(got, want) {
			t.Fatalf("window %v: %d registrations, brute force %d", w, len(got), len(want))
		}
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
