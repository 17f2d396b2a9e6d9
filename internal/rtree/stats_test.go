package rtree

import (
	"math/rand"
	"testing"

	"mbrtopo/internal/geom"
	"mbrtopo/internal/pagefile"
)

func buildStatsTree(t *testing.T, n int) *Tree {
	t.Helper()
	tr, err := NewRStar(pagefile.NewMemFile(testPageSize))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < n; i++ {
		if err := tr.Insert(randRect(rng, 1000, 20), uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	return tr
}

// TestStatsCollection checks the structural invariants of a collected
// summary: entry counts per level, the parent/child node arithmetic,
// and histogram mass equal to the number of leaf entries.
func TestStatsCollection(t *testing.T) {
	const n = 2000
	tr := buildStatsTree(t, n)
	st, err := tr.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Entries != n || st.Height != tr.Height() {
		t.Fatalf("Entries=%d Height=%d, want %d/%d", st.Entries, st.Height, n, tr.Height())
	}
	if len(st.Levels) != st.Height {
		t.Fatalf("%d level summaries for height %d", len(st.Levels), st.Height)
	}
	if st.Levels[0].Entries != n {
		t.Fatalf("leaf level holds %d entries, want %d", st.Levels[0].Entries, n)
	}
	for l := 1; l < len(st.Levels); l++ {
		// Level l entries are child pointers, one per level l-1 node.
		if st.Levels[l].Entries != st.Levels[l-1].Nodes {
			t.Fatalf("level %d has %d entries but level %d has %d nodes",
				l, st.Levels[l].Entries, l-1, st.Levels[l-1].Nodes)
		}
		if st.Levels[l].AreaSum <= 0 || st.Levels[l].MarginSum <= 0 {
			t.Fatalf("level %d area/margin sums not positive: %+v", l, st.Levels[l])
		}
	}
	if st.Levels[st.Height-1].Nodes != 1 {
		t.Fatalf("root level has %d nodes", st.Levels[st.Height-1].Nodes)
	}
	if st.Samples() != n {
		t.Fatalf("X-centre histogram holds %d samples, want %d", st.Samples(), n)
	}
	ySamples := 0
	for _, c := range st.Y.Centers {
		ySamples += c
	}
	if ySamples != n {
		t.Fatalf("Y-centre histogram holds %d samples, want %d", ySamples, n)
	}
	if st.X.MeanExtent <= 0 || st.X.MeanExtent > 20 {
		t.Fatalf("mean X extent %.2f outside the generator's (0, 20]", st.X.MeanExtent)
	}
}

// TestStatsEstimators: the selectivity model must behave sanely at the
// extremes — everything for the full domain, (near) nothing outside
// it, and containment monotone in window size.
func TestStatsEstimators(t *testing.T) {
	const n = 2000
	tr := buildStatsTree(t, n)
	st, err := tr.Stats()
	if err != nil {
		t.Fatal(err)
	}
	full := st.Bounds
	if e := st.EstimateIntersecting(full); e < 0.9*n || e > 1.1*n {
		t.Fatalf("full-domain intersect estimate %.0f, want ≈%d", e, n)
	}
	if e := st.EstimateIntersecting(geom.R(5000, 5000, 5100, 5100)); e > 0.02*n {
		t.Fatalf("far-outside intersect estimate %.0f, want ≈0", e)
	}
	grown := geom.R(full.Min.X-50, full.Min.Y-50, full.Max.X+50, full.Max.Y+50)
	if e := st.EstimateContainedBy(grown); e < 0.8*n {
		t.Fatalf("contained-by-superset estimate %.0f, want ≈%d", e, n)
	}
	small := geom.R(100, 100, 110, 110)
	big := geom.R(50, 50, 400, 400)
	if st.EstimateContainedBy(small) > st.EstimateContainedBy(big) {
		t.Fatal("contained-by estimate not monotone in window size")
	}
	// Containing a tiny probe is possible for the stored rectangles;
	// containing something larger than any of them is not.
	if st.EstimateContaining(geom.R(200, 200, 200.5, 200.5)) <= 0 {
		t.Fatal("containing-a-point estimate is zero")
	}
	if e := st.EstimateContaining(geom.R(0, 0, 900, 900)); e > 0.01*n {
		t.Fatalf("containing-a-huge-window estimate %.0f, want ≈0", e)
	}
}

// TestStatsStaleness: a cached summary absorbs a few mutations, then a
// drift past the staleness limit forces a recollection.
func TestStatsStaleness(t *testing.T) {
	const n = 400
	tr := buildStatsTree(t, n)
	st, err := tr.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Entries != n {
		t.Fatalf("initial Entries=%d", st.Entries)
	}
	rng := rand.New(rand.NewSource(7))
	// Below the limit (max(100, n/10) = 100): the cache may serve the
	// old summary.
	for i := 0; i < 50; i++ {
		if err := tr.Insert(randRect(rng, 1000, 20), uint64(10000+i)); err != nil {
			t.Fatal(err)
		}
	}
	st, err = tr.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Entries != n {
		t.Fatalf("summary recollected below the staleness limit (Entries=%d)", st.Entries)
	}
	// Past the limit: Stats must recollect and see every entry.
	for i := 0; i < 100; i++ {
		if err := tr.Insert(randRect(rng, 1000, 20), uint64(20000+i)); err != nil {
			t.Fatal(err)
		}
	}
	st, err = tr.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Entries != tr.Len() {
		t.Fatalf("stale summary survived %d mutations: Entries=%d, tree holds %d",
			150, st.Entries, tr.Len())
	}
}

// TestMergeStats: tile summaries over disjoint domains merge into one
// whose totals are the sums and whose histograms keep the per-tile
// mass in the right region of the union domain.
func TestMergeStats(t *testing.T) {
	mk := func(seed int64, xoff float64, n int) *TreeStats {
		tr, err := NewRStar(pagefile.NewMemFile(testPageSize))
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < n; i++ {
			r := randRect(rng, 400, 10)
			r.Min.X += xoff
			r.Max.X += xoff
			if err := tr.Insert(r, uint64(i)); err != nil {
				t.Fatal(err)
			}
		}
		st, err := tr.Stats()
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	left := mk(1, 0, 600)
	right := mk(2, 2000, 400)
	merged := MergeStats([]*TreeStats{left, right})
	if merged.Entries != 1000 || merged.Samples() != 1000 {
		t.Fatalf("merged Entries=%d Samples=%d, want 1000/1000", merged.Entries, merged.Samples())
	}
	wantBounds := left.Bounds.Union(right.Bounds)
	if merged.Bounds != wantBounds {
		t.Fatalf("merged bounds %v, want %v", merged.Bounds, wantBounds)
	}
	// A window over the left tile's domain must see roughly the left
	// tile's mass, not a uniform smear across the union.
	leftEst := merged.EstimateIntersecting(left.Bounds)
	if leftEst < 400 || leftEst > 800 {
		t.Fatalf("estimate over left tile domain %.0f, want ≈600", leftEst)
	}
	if MergeStats(nil).Samples() != 0 {
		t.Fatal("merging nothing produced samples")
	}
}
