package mbr

import (
	"math"

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

// Sweep is what the masks of a Domination tell a plane sweep that
// pairs two lists of rectangles in low-x order: which orders of the
// partners' low x edges, and which corner positions against the other
// list's MBR, an admitted pair (p, q) can have.
type Sweep struct {
	// Earlier, Level and Later say whether p.Min.X < q.Min.X,
	// p.Min.X == q.Min.X and p.Min.X > q.Min.X are admissible.
	Earlier, Level, Later bool

	left, right [2]cornerBounds // per axis, for p and for q
}

// cornerBounds says which edges of the partner's MBR bound the low and
// the high end of a rectangle on one axis: floor is "at or above the
// partner MBR's low edge", ceil "at or below its high edge".
type cornerBounds struct {
	loFloor, loCeil, hiFloor, hiCeil bool
}

// Sweep derives the sweep facts of d. ok is false for the zero
// Domination, which promises nothing, and unless every pair d admits
// shares a point on both axes — no before or after sign, the condition
// under which a sweep over x-overlapping pairs finds them all.
func (d Domination) Sweep() (s Sweep, ok bool) {
	if d == (Domination{}) {
		return Sweep{}, false
	}
	for _, a := range [2]AxisDom{d.X, d.Y} {
		if a.m[3]&signLess != 0 || a.m[2]&signMore != 0 {
			return Sweep{}, false
		}
	}
	lowX := d.X.m[0]
	return Sweep{
		Earlier: lowX&signLess != 0,
		Level:   lowX&signEqual != 0,
		Later:   lowX&signMore != 0,
		left:    [2]cornerBounds{d.X.bounds(), d.Y.bounds()},
		right:   [2]cornerBounds{d.X.converse().bounds(), d.Y.converse().bounds()},
	}, true
}

// bounds are the corner bounds of p against an MBR holding q. For a
// comparison sign(x − v) with v anywhere in [lo, hi], a mask without
// "<" forces x ≥ v ≥ lo, and one without ">" forces x ≤ v ≤ hi; p.Lo
// meets q in comparisons 0 and 2, p.Hi in 1 and 3. (Dropping the strict
// forms keeps the bounds a sound relaxation.)
func (d AxisDom) bounds() cornerBounds {
	noLess := func(k int) bool { return d.m[k]&signLess == 0 }
	noMore := func(k int) bool { return d.m[k]&signMore == 0 }
	return cornerBounds{
		loFloor: noLess(0) || noLess(2), loCeil: noMore(0) || noMore(2),
		hiFloor: noLess(1) || noLess(3), hiCeil: noMore(1) || noMore(3),
	}
}

// converse is the predicate with the roles of p and q swapped: every
// sign flips, and the two cross comparisons trade places.
func (d AxisDom) converse() AxisDom {
	flip := func(m uint8) uint8 { return m&signEqual | (m&signLess)<<2 | (m&signMore)>>2 }
	return AxisDom{m: [4]uint8{flip(d.m[0]), flip(d.m[1]), flip(d.m[3]), flip(d.m[2])}}
}

// Left is the window the corners of a rectangle p must lie in for p to
// be admitted against some rectangle inside m.
func (s Sweep) Left(m geom.Rect) Window { return window(s.left, m) }

// Right is the window the corners of a rectangle q must lie in for some
// rectangle inside m to be admitted against q.
func (s Sweep) Right(m geom.Rect) Window { return window(s.right, m) }

func window(b [2]cornerBounds, m geom.Rect) Window {
	var w Window
	w.Min.Min.X, w.Min.Max.X = span(b[0].loFloor, b[0].loCeil, m.Min.X, m.Max.X)
	w.Min.Min.Y, w.Min.Max.Y = span(b[1].loFloor, b[1].loCeil, m.Min.Y, m.Max.Y)
	w.Max.Min.X, w.Max.Max.X = span(b[0].hiFloor, b[0].hiCeil, m.Min.X, m.Max.X)
	w.Max.Min.Y, w.Max.Max.Y = span(b[1].hiFloor, b[1].hiCeil, m.Min.Y, m.Max.Y)
	return w
}

func span(floor, ceil bool, lo, hi float64) (float64, float64) {
	from, to := math.Inf(-1), math.Inf(1)
	if floor {
		from = lo
	}
	if ceil {
		to = hi
	}
	return from, to
}

// Window bounds where the corners of a rectangle may lie: Min holds
// its lower-left corner, Max its upper-right one.
type Window struct {
	Min, Max geom.Rect
}

// Fits reports whether r's corners lie in the window.
func (w Window) Fits(r geom.Rect) bool {
	return w.Min.ContainsPoint(r.Min) && w.Max.ContainsPoint(r.Max)
}

// Touching is the set of configurations whose projections share at
// least one point on both axes — exactly the configurations that can
// realise a relation other than disjoint.
func Touching() ConfigSet { return ProductSet(touchAxes, touchAxes) }
