// Package interval implements the thirteen pairwise-disjoint relations
// between one-dimensional intervals (Allen 1983), which the SIGMOD'95
// paper uses as the projection machinery for Minimum Bounding Rectangles:
// an MBR is the product of its x- and y-projections, so every question
// about rectangle configurations reduces to questions about interval
// relations per axis.
//
// The relations are numbered R1..R13 in the spatial order used by the
// paper (Figure 2): R1 places the primary interval entirely before the
// reference, R13 entirely after, and the numbering advances as the
// primary interval slides rightwards relative to the reference.
//
// All intervals are assumed non-degenerate (Lo < Hi), matching the
// paper's contiguous-region assumption X(p_l) < X(p_u).
package interval

import "fmt"

// Relation identifies one of the thirteen interval relations R1..R13.
//
// The numbering follows the paper's Figure 2 (equivalently Allen's
// thirteen relations, ordered by position):
//
//	R1  Before       p.Hi <  q.Lo
//	R2  Meets        p.Hi == q.Lo
//	R3  Overlaps     p.Lo <  q.Lo < p.Hi < q.Hi
//	R4  FinishedBy   p.Lo <  q.Lo, p.Hi == q.Hi
//	R5  Contains     p.Lo <  q.Lo, p.Hi >  q.Hi
//	R6  Starts       p.Lo == q.Lo, p.Hi <  q.Hi
//	R7  Equal        p.Lo == q.Lo, p.Hi == q.Hi
//	R8  StartedBy    p.Lo == q.Lo, p.Hi >  q.Hi
//	R9  During       q.Lo <  p.Lo, p.Hi < q.Hi
//	R10 Finishes     q.Lo <  p.Lo, p.Hi == q.Hi
//	R11 OverlappedBy q.Lo <  p.Lo < q.Hi < p.Hi
//	R12 MetBy        p.Lo == q.Hi
//	R13 After        p.Lo >  q.Hi
type Relation uint8

// The thirteen interval relations.
const (
	Before Relation = 1 + iota
	Meets
	Overlaps
	FinishedBy
	Contains
	Starts
	Equal
	StartedBy
	During
	Finishes
	OverlappedBy
	MetBy
	After
)

// NumRelations is the number of distinct interval relations.
const NumRelations = 13

var names = [NumRelations + 1]string{
	"", "before", "meets", "overlaps", "finishedBy", "contains",
	"starts", "equal", "startedBy", "during", "finishes",
	"overlappedBy", "metBy", "after",
}

// String returns the conventional Allen-style name of the relation.
func (r Relation) String() string {
	if r < 1 || r > NumRelations {
		return fmt.Sprintf("interval.Relation(%d)", uint8(r))
	}
	return names[r]
}

// Valid reports whether r is one of the thirteen defined relations.
func (r Relation) Valid() bool { return r >= 1 && r <= NumRelations }

// Interval is a non-degenerate closed interval [Lo, Hi] with Lo < Hi.
type Interval struct {
	Lo, Hi float64
}

// Valid reports whether the interval is non-degenerate.
func (iv Interval) Valid() bool { return iv.Lo < iv.Hi }

// Length returns Hi − Lo.
func (iv Interval) Length() float64 { return iv.Hi - iv.Lo }

// Relate classifies the relation of the primary interval p with respect
// to the reference interval q. Both intervals must be non-degenerate;
// Relate panics otherwise, because a degenerate interval cannot arise
// from a valid MBR and silently misclassifying it would corrupt every
// layer built on top.
func Relate(p, q Interval) Relation {
	if !p.Valid() || !q.Valid() {
		panic(fmt.Sprintf("interval.Relate: degenerate interval p=%v q=%v", p, q))
	}
	switch {
	case p.Hi < q.Lo:
		return Before
	case p.Hi == q.Lo:
		return Meets
	case p.Lo > q.Hi:
		return After
	case p.Lo == q.Hi:
		return MetBy
	}
	// The intervals now share interior points.
	switch {
	case p.Lo < q.Lo:
		switch {
		case p.Hi < q.Hi:
			return Overlaps
		case p.Hi == q.Hi:
			return FinishedBy
		default:
			return Contains
		}
	case p.Lo == q.Lo:
		switch {
		case p.Hi < q.Hi:
			return Starts
		case p.Hi == q.Hi:
			return Equal
		default:
			return StartedBy
		}
	default: // p.Lo > q.Lo
		switch {
		case p.Hi < q.Hi:
			return During
		case p.Hi == q.Hi:
			return Finishes
		default:
			return OverlappedBy
		}
	}
}

// converseTable maps each relation to the relation that holds when the
// roles of primary and reference are exchanged.
var converseTable = [NumRelations + 1]Relation{
	0,
	After,        // Before
	MetBy,        // Meets
	OverlappedBy, // Overlaps
	Finishes,     // FinishedBy
	During,       // Contains
	StartedBy,    // Starts
	Equal,        // Equal
	Starts,       // StartedBy
	Contains,     // During
	FinishedBy,   // Finishes
	Overlaps,     // OverlappedBy
	Meets,        // MetBy
	Before,       // After
}

// Converse returns the relation of q with respect to p given the
// relation of p with respect to q.
func (r Relation) Converse() Relation {
	if !r.Valid() {
		panic(fmt.Sprintf("interval.Converse: invalid relation %d", uint8(r)))
	}
	return converseTable[r]
}

// SharesPoints reports whether intervals in relation r share at least
// one point (i.e. the relation is not Before/After).
func (r Relation) SharesPoints() bool { return r != Before && r != After }

// SharesInterior reports whether intervals in relation r share interior
// points (everything except Before, Meets, MetBy, After).
func (r Relation) SharesInterior() bool {
	return r.SharesPoints() && r != Meets && r != MetBy
}

// CoversRef reports whether the primary interval covers the reference
// (q ⊆ p): relations FinishedBy, Contains, Equal, StartedBy.
func (r Relation) CoversRef() bool {
	return r == FinishedBy || r == Contains || r == Equal || r == StartedBy
}

// CoveredByRef reports whether the primary interval is covered by the
// reference (p ⊆ q): relations Starts, Equal, During, Finishes.
func (r Relation) CoveredByRef() bool {
	return r == Starts || r == Equal || r == During || r == Finishes
}

// All returns the thirteen relations in numeric order. The slice is
// freshly allocated; callers may modify it.
func All() []Relation {
	out := make([]Relation, NumRelations)
	for i := range out {
		out[i] = Relation(i + 1)
	}
	return out
}
