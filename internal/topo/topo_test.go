package topo

import "testing"

func TestNamesAndParse(t *testing.T) {
	for _, r := range All() {
		got, err := ParseRelation(r.String())
		if err != nil || got != r {
			t.Errorf("ParseRelation(%q) = %v, %v", r.String(), got, err)
		}
	}
	if r, err := ParseRelation("covered-by"); err != nil || r != CoveredBy {
		t.Errorf("alias covered-by: %v, %v", r, err)
	}
	if _, err := ParseRelation("bogus"); err == nil {
		t.Error("ParseRelation(bogus) should fail")
	}
	if Relation(99).String() != "topo.Relation(99)" {
		t.Error("out-of-range String broken")
	}
}

func TestConverse(t *testing.T) {
	for _, r := range All() {
		if r.Converse().Converse() != r {
			t.Errorf("%v: converse not involutive", r)
		}
	}
	pairs := map[Relation]Relation{
		Disjoint: Disjoint, Meet: Meet, Equal: Equal, Overlap: Overlap,
		Contains: Inside, Covers: CoveredBy,
	}
	for a, b := range pairs {
		if a.Converse() != b {
			t.Errorf("converse(%v) = %v, want %v", a, a.Converse(), b)
		}
	}
}

// TestMatrixConverseIsTranspose: the 9-intersection matrix of the
// converse relation is the transpose of the original matrix.
func TestMatrixConverseIsTranspose(t *testing.T) {
	for _, r := range All() {
		m, conv := r.Matrix(), r.Converse().Matrix()
		for i := 0; i < 3; i++ {
			for j := 0; j < 3; j++ {
				if m[i][j] != conv[j][i] {
					t.Errorf("%v: transpose(Matrix) != Matrix(converse) at [%d][%d]", r, i, j)
				}
			}
		}
	}
}

// TestMatricesDistinct: the eight relations must have pairwise distinct
// matrices (the 9-intersection model distinguishes all of them).
func TestMatricesDistinct(t *testing.T) {
	seen := map[Matrix]Relation{}
	for _, r := range All() {
		if prev, dup := seen[r.Matrix()]; dup {
			t.Errorf("%v and %v share a matrix", prev, r)
		}
		seen[r.Matrix()] = r
	}
}

// TestMatrixInvariants: structural facts that hold for every relation
// between regions embedded in R²: exteriors always intersect; the
// boundary of each region always intersects the closure of the other's
// exterior or the other region itself, etc.
func TestMatrixInvariants(t *testing.T) {
	for _, r := range All() {
		m := r.Matrix()
		if !m[Exterior][Exterior] {
			t.Errorf("%v: exteriors must intersect (bounded regions in R²)", r)
		}
		// A region's interior always intersects the other's interior,
		// boundary or exterior (it is non-empty).
		if !m[Interior][Interior] && !m[Interior][Boundary] && !m[Interior][Exterior] {
			t.Errorf("%v: primary interior intersects nothing", r)
		}
		if !m[Interior][Interior] && !m[Boundary][Interior] && !m[Exterior][Interior] {
			t.Errorf("%v: reference interior intersected by nothing", r)
		}
	}
}

func TestMatrixString(t *testing.T) {
	if got := Equal.Matrix().String(); got != "100 010 001" {
		t.Errorf("Equal matrix string = %q", got)
	}
	if got := Overlap.Matrix().String(); got != "111 111 111" {
		t.Errorf("Overlap matrix string = %q", got)
	}
}

func TestSetBasics(t *testing.T) {
	s := NewSet(Disjoint, Equal)
	if !s.Has(Disjoint) || s.Has(Meet) || s.Len() != 2 {
		t.Fatalf("set basics broken: %v", s)
	}
	if got := s.Union(NewSet(Meet)).Len(); got != 3 {
		t.Fatalf("union: %d", got)
	}
	if got := s.Minus(NewSet(Equal)); got != NewSet(Disjoint) {
		t.Fatalf("minus: %v", got)
	}
	if got := s.Complement(); got.Len() != 6 || got.Has(Disjoint) {
		t.Fatalf("complement: %v", got)
	}
	if !NewSet(Meet).SubsetOf(NotDisjoint) || NewSet(Disjoint).SubsetOf(NotDisjoint) {
		t.Fatal("SubsetOf broken")
	}
	if got := NewSet(Contains, Covers).Converse(); got != NewSet(Inside, CoveredBy) {
		t.Fatalf("set converse: %v", got)
	}
	if In != NewSet(Inside, CoveredBy) {
		t.Fatalf("In = %v", In)
	}
	if got := In.String(); got != "{inside covered_by}" {
		t.Fatalf("In.String = %q", got)
	}
}

// TestCompositionIdentity: equal is the identity element on both sides.
func TestCompositionIdentity(t *testing.T) {
	for _, r := range All() {
		if got := Compose(Equal, r); got != NewSet(r) {
			t.Errorf("equal ∘ %v = %v, want {%v}", r, got, r)
		}
		if got := Compose(r, Equal); got != NewSet(r) {
			t.Errorf("%v ∘ equal = %v, want {%v}", r, got, r)
		}
	}
}

// TestCompositionConverseSymmetry: (r1 ∘ r2)˘ = r2˘ ∘ r1˘. This is a
// strong structural check that catches most transcription errors.
func TestCompositionConverseSymmetry(t *testing.T) {
	for _, r1 := range All() {
		for _, r2 := range All() {
			left := Compose(r1, r2).Converse()
			right := Compose(r2.Converse(), r1.Converse())
			if left != right {
				t.Errorf("(%v∘%v)˘ = %v but %v˘∘%v˘ = %v", r1, r2, left, r2, r1, right)
			}
		}
	}
}

// TestCompositionContainsWitness: composing r with its converse must
// admit equal (take b such that r(a,b); then r˘(b,a) and rel(a,a)=equal).
func TestCompositionContainsWitness(t *testing.T) {
	for _, r := range All() {
		if !Compose(r, r.Converse()).Has(Equal) {
			t.Errorf("%v ∘ %v˘ misses equal", r, r)
		}
	}
}

// TestCompositionNonEmpty: every entry must be non-empty (mt2 is
// jointly exhaustive, so some relation always holds between a and c).
func TestCompositionNonEmpty(t *testing.T) {
	for _, r1 := range All() {
		for _, r2 := range All() {
			if Compose(r1, r2).IsEmpty() {
				t.Errorf("%v ∘ %v is empty", r1, r2)
			}
		}
	}
}

// TestCompositionKnownEntries pins a handful of entries that the paper
// uses explicitly in its Section 5 examples.
func TestCompositionKnownEntries(t *testing.T) {
	// Paper example: p inside q1 and q1 disjoint q2 implies p cannot
	// overlap q2 — indeed inside ∘ disjoint = {disjoint}.
	if got := Compose(Inside, Disjoint); got != NewSet(Disjoint) {
		t.Errorf("inside ∘ disjoint = %v, want {disjoint}", got)
	}
	if got := Compose(Contains, Contains); got != NewSet(Contains) {
		t.Errorf("contains ∘ contains = %v", got)
	}
	if got := Compose(Inside, Inside); got != NewSet(Inside) {
		t.Errorf("inside ∘ inside = %v", got)
	}
	if got := Compose(Disjoint, Disjoint); got != FullSet() {
		t.Errorf("disjoint ∘ disjoint = %v, want all", got)
	}
	if got := Compose(Inside, Contains); got != FullSet() {
		t.Errorf("inside ∘ contains = %v, want all", got)
	}
	if got := Compose(CoveredBy, CoveredBy); got != NewSet(CoveredBy, Inside) {
		t.Errorf("covered_by ∘ covered_by = %v", got)
	}
}

// TestEmptyConjunctionPaperExample: the paper's Figure 13 example —
// "find all objects inside q1 that overlap q2" has an empty result when
// q1 and q2 are disjoint, and also when they meet, are equal, or q1 is
// inside/covered_by q2.
func TestEmptyConjunctionPaperExample(t *testing.T) {
	empty := EmptyConjunction(Inside, Overlap)
	for _, rel := range []Relation{Disjoint, Meet, Equal, Inside, CoveredBy} {
		if !empty.Has(rel) {
			t.Errorf("inside∧overlap with refs %v should be provably empty; table %v", rel, empty)
		}
	}
	for _, rel := range []Relation{Overlap, Contains, Covers} {
		if empty.Has(rel) {
			t.Errorf("inside∧overlap with refs %v should be feasible; table %v", rel, empty)
		}
	}
	if !ConsistentConjunction(Inside, Overlap, Contains) {
		t.Error("ConsistentConjunction broken for feasible case")
	}
	if ConsistentConjunction(Inside, Overlap, Disjoint) {
		t.Error("ConsistentConjunction broken for empty case")
	}
}

// TestEmptyConjunctionDiagonal: conjoining a relation with itself is
// satisfiable whenever the references stand in a relation consistent
// with both (e.g. equal references).
func TestEmptyConjunctionDiagonal(t *testing.T) {
	for _, r := range All() {
		if EmptyConjunction(r, r).Has(Equal) {
			t.Errorf("r=%v: conjunction with itself must be satisfiable for equal references", r)
		}
	}
}
