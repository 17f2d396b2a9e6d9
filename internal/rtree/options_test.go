package rtree

import (
	"math/rand"
	"testing"

	"mbrtopo/internal/geom"
	"mbrtopo/internal/pagefile"
)

func TestMinEntries(t *testing.T) {
	for _, c := range []struct{ capacity, want int }{
		{50, 20},
		{10, 4},
		{4, 2},
		{5, 2}, // ⌈2⌉=2, ≤ 5/2
		{3, 1}, // ⌈1.2⌉=2, capped at M/2=1
	} {
		if got := minEntries(c.capacity); got != c.want {
			t.Errorf("minEntries(M=%d) = %d, want %d", c.capacity, got, c.want)
		}
	}
}

func TestNewRejectsTinyPages(t *testing.T) {
	if _, err := New(pagefile.NewMemFile(64), Options{}, "tiny"); err == nil {
		t.Fatal("64-byte pages should be rejected")
	}
	if _, err := NewRPlus(pagefile.NewMemFile(64)); err == nil {
		t.Fatal("64-byte pages should be rejected for R+ too")
	}
}

// TestRStarBeatsQuadraticOnClusteredOverlap: the R* machinery (split +
// forced reinsert) produces leaves with less mutual overlap than the
// quadratic split on clustered data — the property that drives its
// search advantage.
func TestRStarBeatsQuadraticOnClusteredOverlap(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	var rects []geom.Rect
	for c := 0; c < 10; c++ {
		cx := rng.Float64() * 90
		cy := rng.Float64() * 90
		for i := 0; i < 120; i++ {
			x := cx + rng.NormFloat64()*3
			y := cy + rng.NormFloat64()*3
			rects = append(rects, geom.R(x, y, x+0.5+rng.Float64()*2, y+0.5+rng.Float64()*2))
		}
	}
	leafOverlap := func(tr *Tree) float64 {
		// Sum pairwise overlap area of the leaf-parent entries.
		var leaves []geom.Rect
		var walk func(id pagefile.PageID)
		walk = func(id pagefile.PageID) {
			n, err := tr.st.readNode(id)
			if err != nil {
				t.Fatal(err)
			}
			if n.isLeaf() {
				leaves = append(leaves, n.mbr())
				return
			}
			for _, e := range n.entries {
				walk(e.Child)
			}
		}
		walk(tr.root)
		total := 0.0
		for i := range leaves {
			for j := i + 1; j < len(leaves); j++ {
				total += leaves[i].OverlapArea(leaves[j])
			}
		}
		return total
	}
	quad, err := NewRTree(pagefile.NewMemFile(testPageSize))
	if err != nil {
		t.Fatal(err)
	}
	star, err := NewRStar(pagefile.NewMemFile(testPageSize))
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rects {
		if err := quad.Insert(r, uint64(i+1)); err != nil {
			t.Fatal(err)
		}
		if err := star.Insert(r, uint64(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := star.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	qo, so := leafOverlap(quad), leafOverlap(star)
	if so >= qo {
		t.Fatalf("R* leaf overlap %.1f not below quadratic %.1f", so, qo)
	}
}

// TestLinearSplitProducesValidTrees under heavy load (the linear split
// is only exercised lightly by the shared suites).
func TestLinearSplitStress(t *testing.T) {
	tr, err := New(pagefile.NewMemFile(testPageSize), Options{Split: SplitLinear}, "lin")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	data := map[uint64]geom.Rect{}
	for i := uint64(1); i <= 1500; i++ {
		r := randRect(rng, 200, 3)
		if err := tr.Insert(r, i); err != nil {
			t.Fatal(err)
		}
		data[i] = r
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for q := 0; q < 60; q++ {
		w := randRect(rng, 200, 30)
		if got, want := windowQuery(t, tr, w), bruteWindow(data, w); !eqOIDs(got, want) {
			t.Fatalf("window: %d vs %d", len(got), len(want))
		}
	}
}

// TestForcedReinsertTriggers: the R* overflow treatment must actually
// run (tracked via page write pattern: reinsertion causes strictly
// more page writes per insert than plain splitting on this workload).
func TestForcedReinsertTriggers(t *testing.T) {
	mk := func(forced bool) uint64 {
		f := pagefile.NewMemFile(testPageSize)
		tr, err := New(f, Options{
			Split:              SplitRStar,
			RStarChooseSubtree: true,
			ForcedReinsert:     forced,
		}, "x")
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(5))
		for i := uint64(1); i <= 600; i++ {
			if err := tr.Insert(randRect(rng, 100, 4), i); err != nil {
				t.Fatal(err)
			}
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		return f.Stats().Writes
	}
	with, without := mk(true), mk(false)
	if with <= without {
		t.Fatalf("forced reinsert wrote %d pages, plain %d — reinsert apparently never ran", with, without)
	}
}
