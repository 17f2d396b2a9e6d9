package rtree

import (
	"context"
	"math/rand"
	"testing"

	"mbrtopo/internal/geom"
	"mbrtopo/internal/pagefile"
)

// kindTree is the three tree kinds behind one set of methods.
type kindTree interface {
	searcher
	InsertBatch([]Record) error
	SearchCtx(context.Context, func(geom.Rect) bool, func(geom.Rect) bool, func(geom.Rect, uint64) bool) (TraversalStats, error)
	NearestCtx(context.Context, geom.Point, int) ([]Neighbour, TraversalStats, error)
	CheckInvariants() error
	IOStats() pagefile.Stats
}

// arenaOf returns a tree's arena and published root.
func arenaOf(t *testing.T, x any) (*arena, *node) {
	t.Helper()
	v, ok := x.(interface{ treeCore() *core })
	if !ok {
		t.Fatalf("%T has no arena", x)
	}
	c := v.treeCore()
	return c.st, c.cur.Load().root
}

// TestSearchAllocsIndependentOfAccesses: a search — on a tree built in
// its arena or one adopted from a checkpoint image — allocates nothing,
// however many nodes it visits: the traversal's stack and leaf batch
// are pooled scratch.
func TestSearchAllocsIndependentOfAccesses(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops items at random")
	}
	tree, err := NewArena(testPageSize, Options{Split: SplitRStar, RStarChooseSubtree: true, ForcedReinsert: true}, "R*-tree")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	recs := make([]Record, 3000)
	for i := range recs {
		recs[i] = Record{Rect: randRect(rng, 100, 2), OID: uint64(i + 1)}
	}
	if err := tree.InsertBatch(recs); err != nil {
		t.Fatal(err)
	}
	flat, err := OpenFlatBytes(flatEncode(t, tree, 1))
	if err != nil {
		t.Fatal(err)
	}
	adopted, err := Adopt(flat, testPageSize, rstarOpts, "R*-tree")
	if err != nil {
		t.Fatal(err)
	}
	type searchFn func(context.Context, func(geom.Rect) bool, func(geom.Rect) bool, func(geom.Rect, uint64) bool) (TraversalStats, error)
	for name, search := range map[string]searchFn{"arena tree": tree.SearchCtx, "adopted image": adopted.SearchCtx} {
		var accesses [2]uint64
		var allocs [2]float64
		for i, w := range []geom.Rect{geom.R(50, 50, 51, 51), geom.R(0, 0, 100, 100)} {
			pred := func(r geom.Rect) bool { return r.Intersects(w) }
			emit := func(geom.Rect, uint64) bool { return true }
			allocs[i] = testing.AllocsPerRun(20, func() {
				ts, err := search(context.Background(), pred, pred, emit)
				if err != nil {
					t.Fatal(err)
				}
				accesses[i] = ts.NodeAccesses
			})
		}
		if accesses[1] < 20*accesses[0] {
			t.Fatalf("%s: the full scan reads %d nodes, the point window %d: not far enough apart to tell", name, accesses[1], accesses[0])
		}
		if allocs[0] != 0 || allocs[1] != 0 {
			t.Fatalf("%s: %v allocations for %d accesses, %v for %d: want none",
				name, allocs[0], accesses[0], allocs[1], accesses[1])
		}
	}
}
