package mbr

import (
	"math/rand"
	"testing"

	"mbrtopo/internal/geom"
	"mbrtopo/internal/interval"
	"mbrtopo/internal/topo"
)

func cfg(x, y interval.Relation) Config { return Config{X: x, Y: y} }

func TestConfigIndexRoundTrip(t *testing.T) {
	seen := map[int]bool{}
	for _, c := range AllConfigs() {
		i := c.Index()
		if i < 0 || i >= NumConfigs || seen[i] {
			t.Fatalf("bad index %d for %v", i, c)
		}
		seen[i] = true
		if ConfigFromIndex(i) != c {
			t.Fatalf("round trip broken for %v", c)
		}
	}
	if len(seen) != NumConfigs {
		t.Fatalf("enumerated %d configs", len(seen))
	}
	if got := cfg(interval.Contains, interval.During).String(); got != "R5_9" {
		t.Fatalf("String = %q", got)
	}
}

func TestConfigOf(t *testing.T) {
	q := geom.R(10, 10, 20, 20)
	cases := []struct {
		p    geom.Rect
		want Config
	}{
		{geom.R(0, 0, 5, 5), cfg(interval.Before, interval.Before)},
		{geom.R(10, 10, 20, 20), cfg(interval.Equal, interval.Equal)},
		{geom.R(5, 12, 25, 18), cfg(interval.Contains, interval.During)},
		{geom.R(12, 5, 18, 25), cfg(interval.During, interval.Contains)},
		{geom.R(20, 10, 25, 20), cfg(interval.MetBy, interval.Equal)},
		{geom.R(5, 15, 15, 25), cfg(interval.Overlaps, interval.OverlappedBy)},
	}
	for _, c := range cases {
		if got := ConfigOf(c.p, q); got != c.want {
			t.Errorf("ConfigOf(%v) = %v, want %v", c.p, got, c.want)
		}
		if got := ConfigOf(q, c.p); got != c.want.Converse() {
			t.Errorf("converse ConfigOf(%v) = %v, want %v", c.p, got, c.want.Converse())
		}
	}
}

// TestFigure4Partition verifies the paper's Figure 4: the 169
// configurations partition into the eight rectangle-level topological
// relations with sizes 48/40/50/14/14/1/1/1.
func TestFigure4Partition(t *testing.T) {
	counts := map[topo.Relation]int{}
	for _, c := range AllConfigs() {
		counts[c.Topo()]++
	}
	want := map[topo.Relation]int{
		topo.Disjoint: 48, topo.Meet: 40, topo.Overlap: 50,
		topo.Covers: 14, topo.CoveredBy: 14,
		topo.Contains: 1, topo.Inside: 1, topo.Equal: 1,
	}
	total := 0
	for r, n := range want {
		if counts[r] != n {
			t.Errorf("Figure 4: %v has %d configs, want %d", r, counts[r], n)
		}
		total += n
	}
	if total != NumConfigs {
		t.Fatalf("partition sizes sum to %d", total)
	}
}

// TestTopoMatchesExactGeometry cross-checks the Figure 4 classifier
// against the exact polygon Relate on every pair of grid rectangles.
func TestTopoMatchesExactGeometry(t *testing.T) {
	var rects []geom.Rect
	for x0 := 0; x0 < 4; x0++ {
		for x1 := x0 + 1; x1 <= 4; x1++ {
			for y0 := 0; y0 < 4; y0++ {
				for y1 := y0 + 1; y1 <= 4; y1++ {
					rects = append(rects, geom.R(float64(x0), float64(y0), float64(x1), float64(y1)))
				}
			}
		}
	}
	for _, p := range rects {
		for _, q := range rects {
			want := geom.Relate(p.Polygon(), q.Polygon())
			if got := RelateRects(p, q); got != want {
				t.Fatalf("RelateRects(%v,%v) = %v, exact geometry says %v", p, q, got, want)
			}
		}
	}
}

// TestTable1Cardinalities pins the derived Table 1 row sizes.
func TestTable1Cardinalities(t *testing.T) {
	want := map[topo.Relation]int{
		topo.Equal:     1,
		topo.Contains:  1,
		topo.Inside:    1,
		topo.Covers:    16,
		topo.CoveredBy: 16,
		topo.Disjoint:  138, // 169 − 31 crossing configurations
		topo.Meet:      107, // 121 sharing a point − 14 forced overlaps
		topo.Overlap:   81,  // interiors share points in both axes
	}
	for r, n := range want {
		if got := Candidates(r).Len(); got != n {
			t.Errorf("Table 1 |%v| = %d, want %d", r, got, n)
		}
	}
	if got := crossingSet().Len(); got != 31 {
		t.Errorf("crossing set has %d configs, want 31", got)
	}
}

// TestTable1KnownRows checks rows the paper states explicitly.
func TestTable1KnownRows(t *testing.T) {
	if got := Candidates(topo.Equal); !got.Equal(NewConfigSet(cfg(interval.Equal, interval.Equal))) {
		t.Errorf("equal row = %v", got)
	}
	if got := Candidates(topo.Contains); !got.Equal(NewConfigSet(cfg(interval.Contains, interval.Contains))) {
		t.Errorf("contains row = %v", got)
	}
	if got := Candidates(topo.Inside); !got.Equal(NewConfigSet(cfg(interval.During, interval.During))) {
		t.Errorf("inside row = %v", got)
	}
	// Figure 6: covers retrieves R i_j with i,j ∈ {4,5,7,8}.
	if got := Candidates(topo.Covers); !got.Equal(ProductSet(coversAxes, coversAxes)) {
		t.Errorf("covers row = %v", got)
	}
	// covered_by: i,j ∈ {6,7,9,10}.
	if got := Candidates(topo.CoveredBy); !got.Equal(ProductSet(coveredByAxes, coveredByAxes)) {
		t.Errorf("covered_by row = %v", got)
	}
	// Figure 7: disjoint excludes exactly the crossing configurations.
	if got := Candidates(topo.Disjoint); !got.Equal(FullConfigSet().Minus(crossingSet())) {
		t.Errorf("disjoint row wrong")
	}
}

// TestPossibleRelationsFigure5: when the MBRs are equal the objects may
// be equal, overlap, covered_by, covers or meet — the paper's Figure 5.
func TestPossibleRelationsFigure5(t *testing.T) {
	got := PossibleRelations(cfg(interval.Equal, interval.Equal))
	want := topo.NewSet(topo.Equal, topo.Overlap, topo.CoveredBy, topo.Covers, topo.Meet)
	if got != want {
		t.Errorf("PossibleRelations(R7_7) = %v, want %v", got, want)
	}
}

// TestFigure9NoRefinement: refinement can be skipped exactly for the 48
// MBR-disjoint configurations when querying disjoint, and the 14
// forced-overlap configurations when querying overlap.
func TestFigure9NoRefinement(t *testing.T) {
	if got := NoRefinementSet(topo.Disjoint).Len(); got != 48 {
		t.Errorf("no-refinement set for disjoint has %d configs, want 48", got)
	}
	for _, c := range NoRefinementSet(topo.Disjoint).Configs() {
		if c.Topo() != topo.Disjoint {
			t.Errorf("config %v in disjoint no-refinement set but MBRs are %v", c, c.Topo())
		}
	}
	if got := forcedOverlapSet().Len(); got != 14 {
		t.Errorf("forced-overlap set has %d configs, want 14", got)
	}
	// Of the 14 forced-overlap configs, the 4 that still admit a
	// containment relation (R5_7, R7_5, R7_9, R9_7) need refinement;
	// the other 10 are overlap-only.
	wantNoRef := forcedOverlapSet().
		Minus(Candidates(topo.Covers)).
		Minus(Candidates(topo.CoveredBy))
	if got := NoRefinementSet(topo.Overlap); !got.Equal(wantNoRef) || got.Len() != 10 {
		t.Errorf("no-refinement set for overlap = %v (%d), want %v", got, got.Len(), wantNoRef)
	}
	for _, r := range []topo.Relation{topo.Meet, topo.Equal, topo.Contains, topo.Inside, topo.Covers, topo.CoveredBy} {
		if got := NoRefinementSet(r); !got.IsEmpty() {
			t.Errorf("no-refinement set for %v = %v, want empty", r, got)
		}
	}
	// The strict crossing configuration guarantees overlap (Figure 8).
	if got := PossibleRelations(cfg(interval.Contains, interval.During)); got != topo.NewSet(topo.Overlap) {
		t.Errorf("PossibleRelations(R5_9) = %v, want {overlap}", got)
	}
}

// TestCandidatesConverse: Table 1 must be self-converse — c is a
// possible configuration for r exactly when c˘ is possible for r˘.
func TestCandidatesConverse(t *testing.T) {
	for _, r := range topo.All() {
		var conv ConfigSet
		for _, c := range Candidates(r).Configs() {
			conv.Add(c.Converse())
		}
		if !conv.Equal(Candidates(r.Converse())) {
			t.Errorf("Candidates(%v)˘ != Candidates(%v)", r, r.Converse())
		}
	}
}

// TestCandidatesCoverEverything: every configuration must admit at
// least one relation (a pair of regions always stands in some relation).
func TestCandidatesCoverEverything(t *testing.T) {
	var union ConfigSet
	for _, r := range topo.All() {
		union = union.Union(Candidates(r))
	}
	if !union.Equal(FullConfigSet()) {
		t.Errorf("Table 1 rows miss configurations: %v", FullConfigSet().Minus(union))
	}
}

// TestCandidatesSetUnion checks disjunctive candidate sets (Section 5):
// the "in" relation retrieves the same MBRs as covered_by alone,
// because the inside row is a subset of the covered_by row (Figure 12).
func TestCandidatesSetUnion(t *testing.T) {
	in := CandidatesSet(topo.In)
	if !in.Equal(Candidates(topo.CoveredBy)) {
		t.Errorf("candidates(in) = %v, want the covered_by row", in)
	}
	if !Candidates(topo.Inside).SubsetOf(Candidates(topo.CoveredBy)) {
		t.Error("inside row should be a subset of covered_by row")
	}
}

// TestTable2PaperRows checks the derived propagation table against the
// rows stated in the paper's Table 2.
func TestTable2PaperRows(t *testing.T) {
	cases := []struct {
		r    topo.Relation
		want topo.Set
	}{
		// Paper Table 2 row 1: "equal: equal ∨ covers ∨ contains".
		{topo.Equal, topo.NewSet(topo.Equal, topo.Covers, topo.Contains)},
		// contains: the only candidate config is R5_5, and any node
		// covering such an MBR strictly contains the reference as well.
		{topo.Contains, topo.NewSet(topo.Contains)},
		// covers propagates like equal: the node must include q'.
		{topo.Covers, topo.NewSet(topo.Equal, topo.Covers, topo.Contains)},
		// meet: the candidate row itself spans every non-disjoint class
		// (e.g. R7_7 per Figure 5, R9_9 for a region meeting the inner
		// wall of a U-shaped host), so nodes in any non-disjoint class
		// must be followed. The paper's Figure 10 illustrates four of
		// these classes.
		{topo.Meet, topo.NotDisjoint},
		// inside and covered_by share the same (large) propagation set —
		// the paper infers from Table 2 that their costs are almost equal.
		{topo.Inside, topo.NewSet(topo.Overlap, topo.CoveredBy, topo.Inside, topo.Equal, topo.Covers, topo.Contains)},
		{topo.CoveredBy, topo.NewSet(topo.Overlap, topo.CoveredBy, topo.Inside, topo.Equal, topo.Covers, topo.Contains)},
		// overlap: all interior-sharing classes.
		{topo.Overlap, topo.NewSet(topo.Overlap, topo.CoveredBy, topo.Inside, topo.Equal, topo.Covers, topo.Contains)},
	}
	for _, c := range cases {
		if got := NodeRelations(c.r); got != c.want {
			t.Errorf("Table 2 row %v = %v, want %v", c.r, got, c.want)
		}
	}
	// disjoint requires visiting every node: its propagation set is full.
	if got := PropagationFor(topo.Disjoint); !got.Equal(FullConfigSet()) {
		t.Errorf("disjoint propagation should be all configs, got %d", got.Len())
	}
}

// TestPropagationLaws: propagation contains the original set (a leaf is
// its own cover) and is idempotent (the paper: "the same relation ...
// exists for all the levels of the tree structure").
func TestPropagationLaws(t *testing.T) {
	for _, r := range topo.All() {
		s := Candidates(r)
		p := Propagation(s)
		if !s.SubsetOf(p) {
			t.Errorf("%v: propagation does not contain candidates", r)
		}
		if !Propagation(p).Equal(p) {
			t.Errorf("%v: propagation not idempotent", r)
		}
	}
}

// TestExpand2Table5 checks the non-crisp expansion: monotone, overlap
// row unchanged (stated in the paper), equal row grows to the full
// 2-neighbourhood product.
func TestExpand2Table5(t *testing.T) {
	for _, r := range topo.All() {
		crisp := Candidates(r)
		e2 := CandidatesNonCrisp(r)
		if !crisp.SubsetOf(e2) {
			t.Errorf("%v: expansion not monotone (crisp %d, e2 %d)", r, crisp.Len(), e2.Len())
		}
	}
	// "the output MBRs for the relation overlap remain constant".
	if !CandidatesNonCrisp(topo.Overlap).Equal(Candidates(topo.Overlap)) {
		t.Error("overlap row should be closed under 2-neighbourhood expansion")
	}
	// "the largest increase ... is observed for the relation equal":
	// from 1 configuration to the 9×9 product of the 2-neighbourhood of
	// interval relation 7.
	n2 := interval.Neighbourhood2(interval.Equal)
	if got := CandidatesNonCrisp(topo.Equal); !got.Equal(ProductSet(n2, n2)) {
		t.Errorf("non-crisp equal row = %d configs, want %d", got.Len(), ProductSet(n2, n2).Len())
	}
	// Relative growth is largest for equal.
	eqRatio := float64(CandidatesNonCrisp(topo.Equal).Len()) / float64(Candidates(topo.Equal).Len())
	for _, r := range topo.All() {
		ratio := float64(CandidatesNonCrisp(r).Len()) / float64(Candidates(r).Len())
		if ratio > eqRatio {
			t.Errorf("%v grows by %.1f×, more than equal's %.1f×", r, ratio, eqRatio)
		}
	}
}

func TestConfigSetOps(t *testing.T) {
	a := NewConfigSet(cfg(1, 1), cfg(7, 7))
	b := NewConfigSet(cfg(7, 7), cfg(13, 13))
	if a.Union(b).Len() != 3 || !a.Intersect(b).Equal(NewConfigSet(cfg(7, 7))) {
		t.Fatal("union/intersect broken")
	}
	if got := a.Minus(b); !got.Equal(NewConfigSet(cfg(1, 1))) {
		t.Fatal("minus broken")
	}
	if a.Complement().Len() != NumConfigs-2 {
		t.Fatal("complement broken")
	}
	var s ConfigSet
	if !s.IsEmpty() {
		t.Fatal("zero value should be empty")
	}
	s.Add(cfg(5, 9))
	if s.IsEmpty() || !s.Has(cfg(5, 9)) {
		t.Fatal("add broken")
	}
	s.Remove(cfg(5, 9))
	if !s.IsEmpty() {
		t.Fatal("remove broken")
	}
	if FullConfigSet().Len() != NumConfigs {
		t.Fatal("full set broken")
	}
	if got := NewConfigSet(cfg(5, 9)).String(); got != "{R5_9}" {
		t.Fatalf("String = %q", got)
	}
	if got := FullConfigSet().String(); got != "{169 configs}" {
		t.Fatalf("large String = %q", got)
	}
	if got := Candidates(topo.Covers).XRelations(); got != coversAxes {
		t.Fatalf("XRelations = %v", got)
	}
	if got := Candidates(topo.CoveredBy).YRelations(); got != coveredByAxes {
		t.Fatalf("YRelations = %v", got)
	}
}

// TestAxisRelationsWalkBits: XRelations and YRelations are the
// projections of Configs() bit for bit — on every Table 1 row, its
// propagation, the empty, full and single-member sets, and random ones
// — without materialising it: a query builds its predicates from them
// (DominationFor) and must not allocate doing so.
func TestAxisRelationsWalkBits(t *testing.T) {
	sets := []ConfigSet{{}, FullConfigSet()}
	for _, r := range topo.All() {
		sets = append(sets, Candidates(r), Propagation(Candidates(r)), CandidatesNonContiguous(r))
	}
	for i := 0; i < NumConfigs; i++ {
		sets = append(sets, NewConfigSet(ConfigFromIndex(i)))
	}
	rng := rand.New(rand.NewSource(1995))
	for i := 0; i < 200; i++ {
		var s ConfigSet
		for n := rng.Intn(40); n > 0; n-- {
			s.Add(ConfigFromIndex(rng.Intn(NumConfigs)))
		}
		sets = append(sets, s)
	}
	for _, s := range sets {
		var xs, ys interval.Set
		for _, c := range s.Configs() {
			xs, ys = xs.Add(c.X), ys.Add(c.Y)
		}
		if gx, gy := s.XRelations(), s.YRelations(); gx != xs || gy != ys {
			t.Fatalf("%v: axes %v × %v, want %v × %v", s, gx, gy, xs, ys)
		}
	}
	var sink Domination
	full := FullConfigSet()
	if n := testing.AllocsPerRun(100, func() {
		sink = DominationFor(full)
		_, _ = full.XRelations(), full.YRelations()
		_, _ = Compile(full).Window(geom.R(0, 0, 1, 1))
	}); n != 0 {
		t.Fatalf("projecting a set on its axes costs %v allocations, want 0", n)
	}
	_ = sink
}
