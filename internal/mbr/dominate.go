package mbr

import (
	"mbrtopo/internal/geom"
	"mbrtopo/internal/interval"
)

// Per-axis domination predicates, after "Complete and Sufficient
// Spatial Domination of Multidimensional Rectangles" (Emrich et al.).
// Every one of the thirteen interval relations is fully determined by
// the signs of four endpoint comparisons:
//
//	c0 = sign(p.Lo − q.Lo)   c1 = sign(p.Hi − q.Hi)
//	c2 = sign(p.Lo − q.Hi)   c3 = sign(p.Hi − q.Lo)
//
// so a set of admissible relations induces, per comparison, a set of
// admissible signs. Testing the four signs against those masks is a
// sound relaxation of the exact configuration test: it is the box
// closure of the relation set in sign space, so it can only
// over-admit, never reject a pair whose exact relation is in the set.
// It is also strictly cheaper — four float comparisons and four mask
// tests against the two interval.Relate decision trees plus a bitmap
// probe — and tighter than plain MBR intersection, which corresponds
// to masks that admit everything except the before/after sign rows.
// The filter step (query.Processor) runs it as a pre-test in both
// node and leaf predicates, which is where the page-access reduction
// in TraversalStats comes from.

// Sign bits of one endpoint comparison.
const (
	signLess  uint8 = 1 << iota // a < b
	signEqual                   // a == b
	signMore                    // a > b
)

func signOf(a, b float64) uint8 {
	switch {
	case a < b:
		return signLess
	case a > b:
		return signMore
	default:
		return signEqual
	}
}

// relSigns[r-1] is the sign vector of interval relation r, filled in
// by enumeration at init time (the same grid trick the derivation
// tables use): for each relation, place p's endpoints on a grid
// around the reference interval and record the four comparison signs.
var relSigns [interval.NumRelations][4]uint8

func init() {
	// Grid positions straddling the reference interval [10, 20]: the
	// values 5/10/15/20/25 realise every <, =, > combination against
	// both endpoints, so every one of the 13 relations appears.
	ref := interval.Interval{Lo: 10, Hi: 20}
	grid := []float64{5, 7, 10, 12, 15, 17, 20, 22, 25}
	seen := 0
	for _, lo := range grid {
		for _, hi := range grid {
			p := interval.Interval{Lo: lo, Hi: hi}
			if !p.Valid() {
				continue
			}
			r := interval.Relate(p, ref)
			v := [4]uint8{
				signOf(p.Lo, ref.Lo), signOf(p.Hi, ref.Hi),
				signOf(p.Lo, ref.Hi), signOf(p.Hi, ref.Lo),
			}
			if relSigns[r-1] == ([4]uint8{}) {
				relSigns[r-1] = v
				seen++
			} else if relSigns[r-1] != v {
				panic("mbr: interval relation has ambiguous sign vector")
			}
		}
	}
	if seen != int(interval.NumRelations) {
		panic("mbr: sign-vector enumeration missed a relation")
	}
}

// AxisDom is the per-axis domination predicate of a set of interval
// relations: one admissible-sign mask per endpoint comparison.
type AxisDom struct {
	m [4]uint8
}

// axisDomFor unions the sign masks of every relation in the set.
func axisDomFor(rs interval.Set) AxisDom {
	var d AxisDom
	for r := interval.Relation(1); r <= interval.NumRelations; r++ {
		if !rs.Has(r) {
			continue
		}
		v := relSigns[r-1]
		for i := range d.m {
			d.m[i] |= v[i]
		}
	}
	return d
}

// Admits reports whether the interval (pLo, pHi) can stand in one of
// the set's relations to (qLo, qHi) — a necessary condition: a false
// result proves the exact relation is outside the set.
func (d AxisDom) Admits(pLo, pHi, qLo, qHi float64) bool {
	return signOf(pLo, qLo)&d.m[0] != 0 &&
		signOf(pHi, qHi)&d.m[1] != 0 &&
		signOf(pLo, qHi)&d.m[2] != 0 &&
		signOf(pHi, qLo)&d.m[3] != 0
}

// Domination is the two-axis predicate for a configuration set.
type Domination struct {
	X, Y AxisDom
}

// DominationFor projects the configuration set onto its per-axis
// interval-relation sets and builds the sign masks. The result is
// sound for cs: cs.Has(ConfigOf(p, q)) implies Admits(p, q).
func DominationFor(cs ConfigSet) Domination {
	xs, ys := cs.axes()
	return Domination{X: axisDomFor(xs), Y: axisDomFor(ys)}
}

// Admits reports whether p can stand in one of the set's
// configurations to q. False proves ConfigOf(p, q) is outside the
// set; true says nothing (the relaxation over-admits).
func (d Domination) Admits(p, q geom.Rect) bool {
	return d.X.Admits(p.Min.X, p.Max.X, q.Min.X, q.Max.X) &&
		d.Y.Admits(p.Min.Y, p.Max.Y, q.Min.Y, q.Max.Y)
}
