package query

import (
	"context"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"mbrtopo/internal/geom"
	"mbrtopo/internal/index"
	"mbrtopo/internal/mbr"
	"mbrtopo/internal/rtree"
	"mbrtopo/internal/topo"
)

// skewedIndex bulk-loads a world with a dense cluster in the lower
// left and a sparse scatter everywhere else — the distribution the
// static CostGroup rule mis-plans, since it only looks at reference
// MBR areas.
func skewedIndex(t *testing.T) (index.Index, []rtree.Record) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	var recs []rtree.Record
	oid := uint64(1)
	add := func(x, y, w, h float64) {
		recs = append(recs, rtree.Record{Rect: geom.R(x, y, x+w, y+h), OID: oid})
		oid++
	}
	for i := 0; i < 1800; i++ { // dense cluster in [0,20]²
		add(rng.Float64()*19, rng.Float64()*19, 0.5+rng.Float64(), 0.5+rng.Float64())
	}
	for i := 0; i < 200; i++ { // sparse everywhere in [0,100]²
		add(rng.Float64()*98, rng.Float64()*98, 0.5+rng.Float64(), 0.5+rng.Float64())
	}
	idx, err := index.NewWithPageSize(index.KindRStar, 512)
	if err != nil {
		t.Fatal(err)
	}
	if err := idx.(*rtree.Tree).InsertBatch(recs); err != nil {
		t.Fatal(err)
	}
	return idx, recs
}

// TestPlannerEstimatesSkew: the histogram estimates must see the
// density difference between a cluster window and an empty window of
// the same size.
func TestPlannerEstimatesSkew(t *testing.T) {
	idx, _ := skewedIndex(t)
	pl := PlannerFor(idx)
	if pl == nil {
		t.Fatal("PlannerFor returned nil for a stats-backed index")
	}
	dense := geom.R(2, 2, 12, 12)
	sparse := geom.R(70, 70, 80, 80)
	de := pl.Estimate(topo.Overlap, dense)
	se := pl.Estimate(topo.Overlap, sparse)
	if de < 4*se {
		t.Fatalf("dense window estimate %.1f not clearly above sparse %.1f", de, se)
	}
	// Disjoint is the complement: the sparse window should leave more.
	if pl.Estimate(topo.Disjoint, dense) > pl.Estimate(topo.Disjoint, sparse) {
		t.Fatalf("disjoint estimates inverted")
	}
	// Containment direction: a big window contains more than a tiny one.
	if pl.Estimate(topo.Inside, dense) < pl.Estimate(topo.Inside, geom.R(5, 5, 5.1, 5.1)) {
		t.Fatalf("inside estimate not monotone in window size")
	}
}

// TestPlanConjunctionReorders: both terms in the same cost group, the
// dense reference smaller — the static rule retrieves the dense side,
// the planner overrides it to the sparse one.
func TestPlanConjunctionReorders(t *testing.T) {
	idx, _ := skewedIndex(t)
	pl := PlannerFor(idx)
	dense := geom.R(2, 2, 12, 12)    // area 100, ~full of cluster entries
	sparse := geom.R(60, 60, 90, 90) // area 900, nearly empty
	if !swapConjunctionSets(topo.NewSet(topo.Overlap), sparse, topo.NewSet(topo.Overlap), dense) {
		t.Fatalf("static rule should pick the smaller (dense) reference")
	}
	plan := planConjunction(pl, topo.NewSet(topo.Overlap), sparse, topo.NewSet(topo.Overlap), dense)
	if plan.retrieveSecond {
		t.Fatalf("planner kept the dense side: %s", plan.explain)
	}
	if !plan.reordered {
		t.Fatalf("planner did not flag the override: %s", plan.explain)
	}
	// Without statistics the static choice stands and nothing reorders.
	static := planConjunction(nil, topo.NewSet(topo.Overlap), sparse, topo.NewSet(topo.Overlap), dense)
	if !static.retrieveSecond || static.reordered {
		t.Fatalf("static plan wrong: %+v", static)
	}
}

// TestStreamConjunctionMatchesBrute: the streamed conjunction must
// emit exactly the objects that are candidates for both terms,
// whichever side the planner retrieves.
func TestStreamConjunctionMatchesBrute(t *testing.T) {
	idx, recs := skewedIndex(t)
	p := &Processor{Idx: idx}
	cases := []struct {
		r1, r2 topo.Set
		q1, q2 geom.Rect
	}{
		{topo.NewSet(topo.Overlap), topo.NewSet(topo.Overlap), geom.R(2, 2, 12, 12), geom.R(8, 8, 30, 30)},
		{topo.NotDisjoint, topo.NewSet(topo.Disjoint), geom.R(0, 0, 50, 50), geom.R(10, 10, 15, 15)},
		{topo.NewSet(topo.Inside), topo.NewSet(topo.Overlap), geom.R(0, 0, 25, 25), geom.R(20, 0, 40, 25)},
	}
	for ci, tc := range cases {
		c1 := p.candidateConfigs(tc.r1)
		c2 := p.candidateConfigs(tc.r2)
		var want []uint64
		for _, r := range recs {
			if c1.Has(mbr.ConfigOf(r.Rect, tc.q1)) && c2.Has(mbr.ConfigOf(r.Rect, tc.q2)) {
				want = append(want, r.OID)
			}
		}
		var got []uint64
		stats, err := p.StreamConjunction(context.Background(), tc.r1, tc.q1, tc.r2, tc.q2, 0, func(m Match) bool {
			got = append(got, m.OID)
			return true
		})
		if err != nil {
			t.Fatalf("case %d: %v", ci, err)
		}
		sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		if len(got) != len(want) {
			t.Fatalf("case %d: got %d matches, want %d", ci, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("case %d: match %d: got %d want %d", ci, i, got[i], want[i])
			}
		}
		if stats.Explain == "" {
			t.Fatalf("case %d: no explain line", ci)
		}

		// The batch conjunction is the same plan over the same descent:
		// it reads the same pages and sends exactly the streamed
		// candidates — the retrieved side's survivors of the in-memory
		// test — to refinement. It takes one relation per term.
		if tc.r1.Len() != 1 || tc.r2.Len() != 1 {
			continue
		}
		store := MapStore{}
		for _, r := range recs {
			store[r.OID] = r.Rect.Polygon()
		}
		batch, err := (&Processor{Idx: idx, Objects: store}).QueryConjunction(
			tc.r1.Relations()[0], tc.q1.Polygon(), tc.r2.Relations()[0], tc.q2.Polygon())
		if err != nil {
			t.Fatalf("case %d: QueryConjunction: %v", ci, err)
		}
		if batch.Stats.NodeAccesses != stats.NodeAccesses || batch.Stats.Reordered != stats.Reordered {
			t.Fatalf("case %d: batch %+v, stream %+v: not the same descent", ci, batch.Stats, stats)
		}
		if batch.Stats.RefinementTests != len(got) {
			t.Fatalf("case %d: batch refined %d candidates, stream delivered %d", ci, batch.Stats.RefinementTests, len(got))
		}
		if i := slices.IndexFunc(batch.Matches, func(m Match) bool { return !slices.Contains(got, m.OID) }); i >= 0 {
			t.Fatalf("case %d: batch answer %d was never a streamed candidate", ci, batch.Matches[i].OID)
		}
	}
}

// TestStreamConjunctionShortCircuits: contradictory terms against
// disjoint references must be answered from the composition table.
func TestStreamConjunctionShortCircuits(t *testing.T) {
	idx, _ := skewedIndex(t)
	p := &Processor{Idx: idx}
	// p inside q1 and p contains q2 is impossible when q1, q2 disjoint.
	stats, err := p.StreamConjunction(context.Background(),
		topo.NewSet(topo.Inside), geom.R(0, 0, 10, 10),
		topo.NewSet(topo.Contains), geom.R(50, 50, 60, 60), 0,
		func(Match) bool { t.Fatal("short-circuited query emitted a match"); return false })
	if err != nil {
		t.Fatal(err)
	}
	if !stats.ShortCircuited || stats.NodeAccesses != 0 {
		t.Fatalf("expected a zero-access short circuit, got %+v", stats)
	}
}
