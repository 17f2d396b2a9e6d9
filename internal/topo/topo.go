// Package topo implements the eight topological relations between
// contiguous region objects defined by the 9-intersection model
// (Egenhofer 1991) — the set the SIGMOD'95 paper calls mt2:
//
//	disjoint, meet, equal, overlap, contains, inside, covers, covered_by
//
// together with the relation algebra the paper's Section 5 (complex
// queries) relies on: converse, composition, and the derived table of
// two-reference conjunctions with guaranteed-empty results (Table 4).
//
// The relations are pairwise disjoint and jointly exhaustive for pairs
// of contiguous regions; they coincide with the RCC8 relations of
// Randell, Cui and Cohn (1992) under the mapping
// disjoint=DC, meet=EC, overlap=PO, covered_by=TPP, inside=NTPP,
// covers=TPPi, contains=NTPPi, equal=EQ.
package topo

import "fmt"

// Relation is one of the eight 9-intersection relations between
// contiguous regions (the paper's mt2 set).
type Relation uint8

// The eight relations of mt2. The primary object is the first argument:
// Contains means "primary contains reference", Inside means "primary
// lies inside reference", and so on.
const (
	Disjoint Relation = iota
	Meet
	Equal
	Overlap
	Contains
	Inside
	Covers
	CoveredBy
)

// NumRelations is the number of relations in mt2.
const NumRelations = 8

var names = [NumRelations]string{
	"disjoint", "meet", "equal", "overlap",
	"contains", "inside", "covers", "covered_by",
}

// String returns the paper's name for the relation.
func (r Relation) String() string {
	if r >= NumRelations {
		return fmt.Sprintf("topo.Relation(%d)", uint8(r))
	}
	return names[r]
}

// Valid reports whether r is one of the eight defined relations.
func (r Relation) Valid() bool { return r < NumRelations }

// All returns the eight relations in declaration order.
func All() []Relation {
	return []Relation{Disjoint, Meet, Equal, Overlap, Contains, Inside, Covers, CoveredBy}
}

// ParseRelation maps a relation name (as printed by String, plus the
// common aliases "covered-by" and "coveredby") to its Relation.
func ParseRelation(s string) (Relation, error) {
	switch s {
	case "covered-by", "coveredby", "covered_by":
		return CoveredBy, nil
	}
	for i, n := range names {
		if n == s {
			return Relation(i), nil
		}
	}
	return 0, fmt.Errorf("topo: unknown relation %q", s)
}

var converseTable = [NumRelations]Relation{
	Disjoint:  Disjoint,
	Meet:      Meet,
	Equal:     Equal,
	Overlap:   Overlap,
	Contains:  Inside,
	Inside:    Contains,
	Covers:    CoveredBy,
	CoveredBy: Covers,
}

// Converse returns the relation of q with respect to p given the
// relation of p with respect to q.
func (r Relation) Converse() Relation {
	if !r.Valid() {
		panic(fmt.Sprintf("topo.Converse: invalid relation %d", uint8(r)))
	}
	return converseTable[r]
}

// SharesInterior reports whether regions in relation r share interior
// points.
func (r Relation) SharesInterior() bool {
	return r != Disjoint && r != Meet
}

// ContainsRef reports whether the primary region includes the reference
// as a subset (equal, contains or covers).
func (r Relation) ContainsRef() bool {
	return r == Equal || r == Contains || r == Covers
}

// InsideRef reports whether the primary region is a subset of the
// reference (equal, inside or covered_by).
func (r Relation) InsideRef() bool {
	return r == Equal || r == Inside || r == CoveredBy
}

// Matrix is a 9-intersection matrix: entry [i][j] is true when the
// intersection of part i of the primary with part j of the reference is
// non-empty, with parts ordered interior, boundary, exterior.
type Matrix [3][3]bool

// The part indices of a Matrix.
const (
	Interior = 0
	Boundary = 1
	Exterior = 2
)

// matrices holds the canonical 9-intersection matrix of each relation
// for contiguous (homogeneously 2-dimensional, connected, with
// connected boundary) regions.
var matrices = [NumRelations]Matrix{
	Disjoint: {
		{false, false, true},
		{false, false, true},
		{true, true, true},
	},
	Meet: {
		{false, false, true},
		{false, true, true},
		{true, true, true},
	},
	Equal: {
		{true, false, false},
		{false, true, false},
		{false, false, true},
	},
	Overlap: {
		{true, true, true},
		{true, true, true},
		{true, true, true},
	},
	Contains: {
		{true, true, true},
		{false, false, true},
		{false, false, true},
	},
	Inside: {
		{true, false, false},
		{true, false, false},
		{true, true, true},
	},
	Covers: {
		{true, true, true},
		{false, true, true},
		{false, false, true},
	},
	CoveredBy: {
		{true, false, false},
		{true, true, false},
		{true, true, true},
	},
}

// Matrix returns the canonical 9-intersection matrix of the relation.
func (r Relation) Matrix() Matrix {
	if !r.Valid() {
		panic(fmt.Sprintf("topo.Matrix: invalid relation %d", uint8(r)))
	}
	return matrices[r]
}

// String renders the matrix in the conventional row-major form with ¬∅
// as 1 and ∅ as 0.
func (m Matrix) String() string {
	out := make([]byte, 0, 12)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if m[i][j] {
				out = append(out, '1')
			} else {
				out = append(out, '0')
			}
		}
		if i < 2 {
			out = append(out, ' ')
		}
	}
	return string(out)
}
