package experiments

import (
	"strings"
	"testing"

	"mbrtopo/internal/index"
	"mbrtopo/internal/topo"
	"mbrtopo/internal/workload"
)

// TestTable3Shape checks the qualitative structure the paper reports:
// disjoint retrieves nearly everything; equal/covers/contains retrieve
// very little; meet and overlap grow with MBR size.
func TestTable3Shape(t *testing.T) {
	res, err := RunTable3(Quick())
	if err != nil {
		t.Fatal(err)
	}
	for _, class := range workload.AllSizeClasses() {
		h := res.Hits[class]
		n := float64(Quick().NData)
		if h[topo.Disjoint] < 0.95*n {
			t.Errorf("%v: disjoint hits %.0f, want ≈%v", class, h[topo.Disjoint], n)
		}
		if h[topo.Equal] > 1 {
			t.Errorf("%v: equal hits %.1f, want ≤1 on random data", class, h[topo.Equal])
		}
		if h[topo.Meet] < h[topo.Covers] {
			t.Errorf("%v: meet (%.1f) should retrieve more than covers (%.1f)",
				class, h[topo.Meet], h[topo.Covers])
		}
		// On continuous random data exact touches have measure zero, so
		// meet and overlap hits nearly coincide (meet is overlap's
		// candidate set minus the 14 forced-overlap configurations).
		if diff := h[topo.Overlap] - h[topo.Meet]; diff < 0 || diff > 0.25*h[topo.Overlap]+1 {
			t.Errorf("%v: overlap (%.1f) and meet (%.1f) hits diverge unexpectedly",
				class, h[topo.Overlap], h[topo.Meet])
		}
		if h[topo.Covers] > h[topo.Overlap] {
			t.Errorf("%v: covers (%.1f) should not exceed overlap (%.1f)",
				class, h[topo.Covers], h[topo.Overlap])
		}
	}
	// Meet/overlap hits grow with MBR size.
	if res.Hits[workload.Large][topo.Overlap] <= res.Hits[workload.Small][topo.Overlap] {
		t.Error("overlap hits should grow with MBR size")
	}
}

// TestFig11Shape checks the paper's qualitative findings: disjoint is
// the most expensive relation on every tree; the cheap group
// (equal/covers/contains) beats the middle group; and every
// non-disjoint relation on the small file beats the serial baseline.
func TestFig11Shape(t *testing.T) {
	cfg := Quick()
	res, err := RunFig11(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, class := range cfg.Classes {
		for _, kind := range index.AllKinds() {
			a := res.Accesses[class][kind]
			for _, rel := range topo.All() {
				if rel == topo.Disjoint {
					continue
				}
				if a[topo.Disjoint] < a[rel] {
					t.Errorf("%v/%v: disjoint (%.1f) cheaper than %v (%.1f)",
						class, kind, a[topo.Disjoint], rel, a[rel])
				}
			}
			cheap := (a[topo.Equal] + a[topo.Covers] + a[topo.Contains]) / 3
			mid := (a[topo.Meet] + a[topo.Overlap] + a[topo.Inside] + a[topo.CoveredBy]) / 4
			if cheap > mid {
				t.Errorf("%v/%v: cheap group %.1f not cheaper than middle group %.1f",
					class, kind, cheap, mid)
			}
		}
	}
	// Small data: everything except disjoint far below serial scan.
	small := res.Accesses[workload.Small][index.KindRTree]
	for _, rel := range topo.All() {
		if rel != topo.Disjoint && small[rel] >= float64(res.Serial) {
			t.Errorf("small/%v: %.1f accesses ≥ serial %d", rel, small[rel], res.Serial)
		}
	}
}

// TestFig12Lattice: the lattice contains the paper's edges.
func TestFig12Lattice(t *testing.T) {
	res := RunFig12()
	want := map[LatticeEdge]bool{
		{Sub: topo.Inside, Super: topo.CoveredBy}:  false,
		{Sub: topo.Contains, Super: topo.Covers}:   false,
		{Sub: topo.Equal, Super: topo.Covers}:      false,
		{Sub: topo.Equal, Super: topo.CoveredBy}:   false,
		{Sub: topo.Covers, Super: topo.Overlap}:    false,
		{Sub: topo.CoveredBy, Super: topo.Overlap}: false,
		{Sub: topo.Overlap, Super: topo.Disjoint}:  false, // 81 ⊂ 138? both contain shared interior configs
	}
	delete(want, LatticeEdge{Sub: topo.Overlap, Super: topo.Disjoint})
	for _, e := range res.Edges {
		if _, ok := want[e]; ok {
			want[e] = true
		}
	}
	for e, seen := range want {
		if !seen {
			t.Errorf("lattice misses edge %v ⊂ %v", e.Sub, e.Super)
		}
	}
	out := res.Render()
	if !strings.Contains(out, "candidates(inside ∨ covered_by) == candidates(covered_by): true") {
		t.Error("in-query identity not confirmed")
	}
	if !strings.Contains(out, "candidates(meet ∨ contains ∨ equal ∨ inside) == candidates(meet): true") {
		t.Error("meet-union identity not confirmed")
	}
}

// TestTable5Shape: tolerant retrieval is never cheaper, equal grows to
// 81 configurations, overlap stays identical.
func TestTable5Shape(t *testing.T) {
	res, err := RunTable5(Quick())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		if row.TolerantConfigs < row.CrispConfigs {
			t.Errorf("%v: tolerant configs < crisp", row.Relation)
		}
		if row.TolerantHits < row.CrispHits-1e-9 {
			t.Errorf("%v: tolerant hits %.1f < crisp %.1f", row.Relation, row.TolerantHits, row.CrispHits)
		}
		switch row.Relation {
		case topo.Equal:
			if row.CrispConfigs != 1 || row.TolerantConfigs != 81 {
				t.Errorf("equal: %d → %d configs, want 1 → 81", row.CrispConfigs, row.TolerantConfigs)
			}
		case topo.Overlap:
			if row.TolerantConfigs != row.CrispConfigs || row.TolerantHits != row.CrispHits {
				t.Errorf("overlap should be unchanged by expansion")
			}
		}
	}
}

// TestWindowShape: the 4-step retrieval never does worse than the
// window baseline, and the candidate sets for selective relations are
// far smaller.
func TestWindowShape(t *testing.T) {
	res, err := RunWindow(Quick(), workload.Medium)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		if row.StepAccesses > row.WindowAccesses+1e-9 {
			t.Errorf("%v: 4-step %.1f accesses > window %.1f", row.Relation, row.StepAccesses, row.WindowAccesses)
		}
		if row.StepHits > row.WindowHits+1e-9 {
			t.Errorf("%v: 4-step %.1f hits > window %.1f", row.Relation, row.StepHits, row.WindowHits)
		}
	}
	// Selective relations: big candidate reduction (the paper: e.g.
	// inside/covers usually below 10% of the window hits).
	for _, row := range res.Rows {
		if row.Relation == topo.Covers || row.Relation == topo.Inside {
			if row.WindowHits > 0 && row.StepHits > 0.5*row.WindowHits {
				t.Errorf("%v: step hits %.1f not ≪ window hits %.1f", row.Relation, row.StepHits, row.WindowHits)
			}
		}
	}
}

// TestComplexShape: the Section 5 identities hold exactly and the
// short-circuit is sound.
func TestComplexShape(t *testing.T) {
	cfg := Quick()
	res, err := RunComplex(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.InAccesses != res.CoveredByAccesses {
		t.Errorf("in: %.1f accesses, covered_by: %.1f (paper: identical)", res.InAccesses, res.CoveredByAccesses)
	}
	if res.MeetUnionAccesses != res.MeetAccesses {
		t.Errorf("meet-union: %.1f, meet: %.1f (paper: identical)", res.MeetUnionAccesses, res.MeetAccesses)
	}
	if !res.ShortCircuitSound {
		t.Error("short-circuit produced a wrong empty answer")
	}
	if res.ShortCircuitAccesses != 0 {
		t.Error("short-circuited conjunctions must not touch the index")
	}
	if res.ConjunctionsTried == 0 {
		t.Error("no conjunctions executed")
	}
}

// TestAblationsShape runs the ablations on a small config and checks
// the structural expectations.
func TestAblationsShape(t *testing.T) {
	cfg := Quick()
	cfg.NData = 800
	cfg.NQueries = 10
	res, err := RunAblations(cfg, workload.Medium)
	if err != nil {
		t.Fatal(err)
	}
	for _, rel := range topo.All() {
		if res.PropagationAccesses[rel] > res.NaiveAccesses[rel]+1e-9 {
			t.Errorf("%v: table-2 pruning (%.1f) worse than naive (%.1f)",
				rel, res.PropagationAccesses[rel], res.NaiveAccesses[rel])
		}
	}
}

func TestConfigHelpers(t *testing.T) {
	cfg := Default()
	if cfg.PageCapacity() != 50 {
		t.Errorf("paper page capacity = %d, want 50", cfg.PageCapacity())
	}
	if cfg.SerialBaseline() != 200 {
		t.Errorf("serial baseline = %d, want 200", cfg.SerialBaseline())
	}
}
