package rtree

import (
	"context"
	"math/rand"
	"sort"
	"testing"

	"mbrtopo/internal/geom"
)

// bruteNearest returns the k smallest distances to the query point.
func bruteNearest(data map[uint64]geom.Rect, p geom.Point, k int) []float64 {
	var ds []float64
	for _, r := range data {
		ds = append(ds, r.DistToPoint(p))
	}
	sort.Float64s(ds)
	if len(ds) > k {
		ds = ds[:k]
	}
	return ds
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

// TestNearestAgainstBruteForce checks kNN on both tree families.
func TestNearestAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	data := map[uint64]geom.Rect{}
	rt, err := newTestRTree()
	if err != nil {
		t.Fatal(err)
	}
	rp, err := NewRPlusArena(testPageSize)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 800; i++ {
		r := randRect(rng, 100, 4)
		data[i] = r
		if err := rt.Insert(r, i); err != nil {
			t.Fatal(err)
		}
		if err := rp.Insert(r, i); err != nil {
			t.Fatal(err)
		}
	}
	type knn interface {
		NearestCtx(context.Context, geom.Point, int) ([]Neighbour, TraversalStats, error)
	}
	for name, tree := range map[string]knn{"rtree": rt, "rplus": rp} {
		for q := 0; q < 60; q++ {
			p := geom.Point{X: rng.Float64() * 110, Y: rng.Float64() * 110}
			for _, k := range []int{1, 5, 20} {
				got, _, err := tree.NearestCtx(context.Background(), p, k)
				if err != nil {
					t.Fatal(err)
				}
				want := bruteNearest(data, p, k)
				if len(got) != len(want) {
					t.Fatalf("%s k=%d: got %d results", name, k, len(got))
				}
				for i := range got {
					// Compare distances (ties permit different ids).
					if diff := got[i].Dist - want[i]; diff > 1e-12 || diff < -1e-12 {
						t.Fatalf("%s k=%d rank %d: dist %v want %v", name, k, i, got[i].Dist, want[i])
					}
					if got[i].Rect.DistToPoint(p) != got[i].Dist {
						t.Fatalf("%s: reported distance inconsistent", name)
					}
					if data[got[i].OID].DistToPoint(p) != got[i].Dist {
						t.Fatalf("%s: reported oid/rect mismatch", name)
					}
					if i > 0 && got[i].Dist < got[i-1].Dist {
						t.Fatalf("%s: results not ordered", name)
					}
				}
				// No duplicate OIDs.
				seen := map[uint64]bool{}
				for _, nb := range got {
					if seen[nb.OID] {
						t.Fatalf("%s: duplicate oid %d", name, nb.OID)
					}
					seen[nb.OID] = true
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
