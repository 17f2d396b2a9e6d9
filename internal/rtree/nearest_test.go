package rtree

import (
	"cmp"
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"

	"mbrtopo/internal/geom"
)

// bruteNearest returns the k registrations of recs nearest to p in the
// answer's total order: distance, then oid, then rectangle.
func bruteNearest(recs []Record, p geom.Point, k int) []Neighbour {
	all := make([]Neighbour, len(recs))
	for i, r := range recs {
		all[i] = Neighbour{Rect: r.Rect, OID: r.OID, Dist: r.Rect.DistToPoint(p)}
	}
	slices.SortFunc(all, func(a, b Neighbour) int {
		return cmp.Or(cmp.Compare(a.Dist, b.Dist), cmp.Compare(a.OID, b.OID),
			cmp.Compare(a.Rect.Min.X, b.Rect.Min.X), cmp.Compare(a.Rect.Min.Y, b.Rect.Min.Y),
			cmp.Compare(a.Rect.Max.X, b.Rect.Max.X), cmp.Compare(a.Rect.Max.Y, b.Rect.Max.Y))
	})
	return all[:min(k, len(all))]
}

// bruteAccesses is the pages of every node of c whose MINDIST from p is
// at most dk (the root's is 0), found by visiting them all: the pages a
// best-first search that stops at the k-th distance dk must read.
func bruteAccesses(c *core, p geom.Point, dk float64) uint64 {
	var pages uint64
	var visit func(n *node, dist float64)
	visit = func(n *node, dist float64) {
		if dist <= dk {
			pages += uint64(n.cost)
		}
		if !n.isLeaf() {
			for _, e := range n.entries {
				visit(e.Child, e.Rect.DistToPoint(p))
			}
		}
	}
	visit(c.cur.Load().root, 0)
	return pages
}

func TestRectDistToPoint(t *testing.T) {
	r := geom.R(0, 0, 4, 2)
	cases := []struct {
		p geom.Point
		d float64
	}{
		{geom.Point{X: 2, Y: 1}, 0},
		{geom.Point{X: 0, Y: 0}, 0},
		{geom.Point{X: 6, Y: 1}, 2},
		{geom.Point{X: 2, Y: 5}, 3},
		{geom.Point{X: 7, Y: 6}, 5},
		{geom.Point{X: -3, Y: -4}, 5},
	}
	for _, c := range cases {
		if got := r.DistToPoint(c.p); got != c.d {
			t.Errorf("DistToPoint(%v) = %v, want %v", c.p, got, c.d)
		}
	}
}

// TestNearestAgainstBruteForce holds kNN on R-, R*- and R+-trees to a
// sorted scan of the registrations, in the full answer order, over data
// with exact distance ties: rectangles that contain many query points
// (distance 0), a grid of unit squares queried from grid points, oids
// stored under two rectangles and registrations inserted twice; k runs
// past the tree's size. Its node accesses must be the pages of exactly
// the nodes whose MINDIST is at most the k-th distance.
func TestNearestAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	rt, err := newTestRTree()
	if err != nil {
		t.Fatal(err)
	}
	rs, err := newTestRStar()
	if err != nil {
		t.Fatal(err)
	}
	rp, err := NewRPlusArena(testPageSize)
	if err != nil {
		t.Fatal(err)
	}
	trees := []struct {
		name string
		tree searcher
		c    *core
	}{{"rtree", rt, &rt.core}, {"rstar", rs, &rs.core}, {"rplus", rp, &rp.core}}
	var recs []Record
	for i := 0; i < 800; i++ {
		var r geom.Rect
		switch {
		case i%40 == 0:
			x, y := rng.Float64()*60, rng.Float64()*60
			r = geom.R(x, y, x+20+rng.Float64()*20, y+20+rng.Float64()*20)
		case i%4 == 0:
			x, y := float64(rng.Intn(20)*5), float64(rng.Intn(20)*5)
			r = geom.R(x, y, x+1, y+1)
		default:
			r = randRect(rng, 100, 4)
		}
		oid := uint64(rng.Intn(600) + 1)
		copies := 1
		if i%25 == 0 {
			copies = 2
		}
		for range copies {
			for _, tr := range trees {
				if err := tr.tree.Insert(r, oid); err != nil {
					t.Fatalf("%s: %v", tr.name, err)
				}
			}
			recs = append(recs, Record{Rect: r, OID: oid})
		}
	}
	for _, tr := range trees {
		for q := 0; q < 60; q++ {
			p := geom.Point{X: rng.Float64()*110 - 5, Y: rng.Float64()*110 - 5}
			if q%3 == 0 {
				p = geom.Point{X: float64(rng.Intn(22) * 5), Y: float64(rng.Intn(22) * 5)}
			}
			for _, k := range []int{1, 5, 20, len(recs) + 10} {
				got, ts, err := tr.c.NearestCtx(context.Background(), p, k)
				if err != nil {
					t.Fatal(err)
				}
				want := bruteNearest(recs, p, k)
				if !slices.Equal(got, want) {
					t.Fatalf("%s k=%d at %v:\n got %v\nwant %v", tr.name, k, p, got, want)
				}
				dk := math.Inf(1)
				if len(got) == k {
					dk = got[k-1].Dist
				}
				if wantPages := bruteAccesses(tr.c, p, dk); ts.NodeAccesses != wantPages {
					t.Fatalf("%s k=%d at %v: %d node accesses, want %d (the nodes within %v)", tr.name, k, p, ts.NodeAccesses, wantPages, dk)
				}
				if ts.Emitted != len(got) {
					t.Fatalf("%s k=%d: Emitted %d for %d neighbours", tr.name, k, ts.Emitted, len(got))
				}
			}
		}
	}
}

func TestNearestEdgeCases(t *testing.T) {
	rt, err := newTestRTree()
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := rt.NearestCtx(context.Background(), geom.Point{}, 0); err == nil {
		t.Error("k=0 accepted")
	}
	got, _, err := rt.NearestCtx(context.Background(), geom.Point{}, 5)
	if err != nil || len(got) != 0 {
		t.Errorf("empty tree: %v %v", got, err)
	}
	_ = rt.Insert(geom.R(1, 1, 2, 2), 7)
	got, _, err = rt.NearestCtx(context.Background(), geom.Point{X: 0, Y: 0}, 5)
	if err != nil || len(got) != 1 || got[0].OID != 7 {
		t.Errorf("single entry: %v %v", got, err)
	}
}

// TestNearestAllocs bounds what a 10-NN allocates: the k best, which
// become the answer. The node heap is pooled scratch, no push boxes its
// item (a push through container/heap cost one allocation), and a leaf
// entry is never pushed at all.
func TestNearestAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops items at random")
	}
	rng := rand.New(rand.NewSource(10))
	rt, err := newTestRTree()
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 2000; i++ {
		if err := rt.Insert(randRect(rng, 1000, 20), i); err != nil {
			t.Fatal(err)
		}
	}
	p := geom.Point{X: 500, Y: 500}
	n := testing.AllocsPerRun(20, func() {
		if _, _, err := rt.NearestCtx(context.Background(), p, 10); err != nil {
			t.Fatal(err)
		}
	})
	if n > 1 {
		t.Errorf("a 10-NN over %d objects costs %v allocations, want at most 1", rt.Len(), n)
	}
}
