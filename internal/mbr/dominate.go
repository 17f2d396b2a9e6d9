package mbr

import (
	"math"
	"math/bits"

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
// It is tighter than plain MBR intersection, which corresponds to masks
// that admit everything except the before/after sign rows.
//
// For a fixed reference q the masks are a box on each corner of the
// candidate (Compile, Test.Window): p.Lo meets comparisons c0 and c2,
// p.Hi meets c3 and c1, and the two masks a coordinate meets allow a
// subset of five regions against (q.Lo, q.Hi) — below, at Lo, between,
// at Hi, above. The window spans the hull of each subset, so testing an
// entry is eight float comparisons. Where every subset is one run of
// regions and the box closure adds no configuration (an exact Test), the
// window is the configuration set itself: the filter step
// (query.Processor) then tests node and leaf entries with the window
// alone, and otherwise puts it in front of the exact probe. The join,
// which has no fixed reference, tests its pairs with the masks as
// direct comparisons of the two rectangles' edges (Test.Admits) and
// skips the probe on the same condition.

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

// closure is the set of relations whose sign vectors the masks admit:
// the axis set plus whatever the box closure adds to it.
func (d AxisDom) closure() interval.Set {
	var rs interval.Set
	for r := interval.Relation(1); r <= interval.NumRelations; r++ {
		v := relSigns[r-1]
		if v[0]&d.m[0] != 0 && v[1]&d.m[1] != 0 && v[2]&d.m[2] != 0 && v[3]&d.m[3] != 0 {
			rs = rs.Add(r)
		}
	}
	return rs
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
// set; true says nothing (the relaxation over-admits) unless the
// masks decide the set alone (an exact Test).
func (d Domination) Admits(p, q geom.Rect) bool {
	return d.X.Admits(p.Min.X, p.Max.X, q.Min.X, q.Max.X) &&
		d.Y.Admits(p.Min.Y, p.Max.Y, q.Min.Y, q.Max.Y)
}

// Regions of one coordinate x against a reference interval [lo, hi]
// with lo < hi, as bits of a region set, in ascending order.
const (
	regionBelow   uint8 = 1 << iota // x < lo
	regionAtLo                      // x == lo
	regionBetween                   // lo < x < hi
	regionAtHi                      // x == hi
	regionAbove                     // x > hi
)

// regionSigns[k] is (sign(x − lo), sign(x − hi)) in region 1<<k.
var regionSigns = [...][2]uint8{
	{signLess, signLess}, {signEqual, signLess}, {signMore, signLess},
	{signMore, signEqual}, {signMore, signMore},
}

// regionsOf is the set of regions in which sign(x − lo) is in toLo and
// sign(x − hi) is in toHi.
func regionsOf(toLo, toHi uint8) uint8 {
	var rs uint8
	for k, s := range regionSigns {
		if s[0]&toLo != 0 && s[1]&toHi != 0 {
			rs |= 1 << k
		}
	}
	return rs
}

// oneRun reports whether the region set is empty or one run of adjacent
// regions, so that its hull adds none.
func oneRun(rs uint8) bool {
	rs >>= bits.TrailingZeros8(rs)
	return rs&(rs+1) == 0
}

// regionHull is the closed interval spanning the region set rs of
// [lo, hi]: a strict edge becomes the next float inward, so the window
// compares with <= alone. The empty set is an empty interval.
func regionHull(rs uint8, lo, hi float64) (from, to float64) {
	down, up := math.Inf(-1), math.Inf(1)
	if rs == 0 {
		return up, down
	}
	edges := [...][2]float64{
		{down, math.Nextafter(lo, down)},
		{lo, lo},
		{math.Nextafter(lo, up), math.Nextafter(hi, down)},
		{hi, hi},
		{math.Nextafter(hi, up), up},
	}
	return edges[bits.TrailingZeros8(rs)][0], edges[bits.Len8(rs)-1][1]
}

// Test is a configuration set compiled for the filter step: the set,
// its sign masks, the regions they leave each corner coordinate of a
// candidate, and whether those decide the set alone. Compile reads the
// set's 13 rows a handful of times and allocates nothing, so a query or
// a join compiles its sets as it starts.
type Test struct {
	dom Domination
	// corners[axis] are the regions the masks allow a candidate's low
	// and high coordinate on that axis.
	corners [2][2]uint8
	// exact: the masks decide the set alone, so for valid p and q the
	// window's Fits and Admits need no ConfigOf probe.
	exact bool
	cfgs  ConfigSet
}

// Compile builds the test of cs.
func Compile(cs ConfigSet) Test {
	t := Test{dom: DominationFor(cs), cfgs: cs}
	runs := true
	for i, a := range [2]AxisDom{t.dom.X, t.dom.Y} {
		lo, hi := regionsOf(a.m[0], a.m[2]), regionsOf(a.m[3], a.m[1])
		t.corners[i] = [2]uint8{lo, hi}
		runs = runs && oneRun(lo) && oneRun(hi)
	}
	t.exact = runs && ProductSet(t.dom.X.closure(), t.dom.Y.closure()).Equal(cs)
	return t
}

// Domination is the test's sign masks, for pairs with no fixed
// reference.
func (t Test) Domination() Domination { return t.dom }

// Admits reports cs.Has(ConfigOf(p, q)) for valid p and q: the join's
// pair test. The masks go first, as direct comparisons of the edges —
// the high x edges, which a sweep in low-x order leaves open, then y,
// then the x edges the sweep has mostly decided — and the probe runs
// behind them only where they do not decide the set alone.
func (t *Test) Admits(p, q *geom.Rect) bool {
	x, y := &t.dom.X.m, &t.dom.Y.m
	if !signIn(x[1], p.Max.X, q.Max.X) ||
		!signIn(y[0], p.Min.Y, q.Min.Y) || !signIn(y[1], p.Max.Y, q.Max.Y) ||
		!signIn(y[2], p.Min.Y, q.Max.Y) || !signIn(y[3], p.Max.Y, q.Min.Y) ||
		!signIn(x[0], p.Min.X, q.Min.X) || !signIn(x[2], p.Min.X, q.Max.X) || !signIn(x[3], p.Max.X, q.Min.X) {
		return false
	}
	return t.exact || t.cfgs.Has(ConfigOf(*p, *q))
}

// signIn reports whether the mask m admits sign(a − b): the one
// comparison of a and b a mask of one or two adjacent signs amounts to.
func signIn(m uint8, a, b float64) bool {
	switch m {
	case signLess | signEqual:
		return a <= b
	case signEqual | signMore:
		return a >= b
	case signLess:
		return a < b
	case signMore:
		return a > b
	}
	return signOf(a, b)&m != 0
}

// Window is the box the masks allow a candidate's corners against q,
// and whether it decides the set alone (the test is exact). Where each
// corner's regions form one run its Fits says what Domination().Admits
// says against q; otherwise it spans their hull and over-admits. A
// reference the region order does not describe — zero extent or a
// non-finite edge — gets the whole-plane window, never exact.
func (t Test) Window(q geom.Rect) (Window, bool) {
	if !q.Valid() || !q.Finite() {
		inf := math.Inf(1)
		plane := geom.R(-inf, -inf, inf, inf)
		return Window{Min: plane, Max: plane}, false
	}
	var w Window
	w.Min.Min.X, w.Min.Max.X = regionHull(t.corners[0][0], q.Min.X, q.Max.X)
	w.Max.Min.X, w.Max.Max.X = regionHull(t.corners[0][1], q.Min.X, q.Max.X)
	w.Min.Min.Y, w.Min.Max.Y = regionHull(t.corners[1][0], q.Min.Y, q.Max.Y)
	w.Max.Min.Y, w.Max.Max.Y = regionHull(t.corners[1][1], q.Min.Y, q.Max.Y)
	return w, t.exact
}

// Filter is the filter descent's form of the test of cfgs, over a
// fixed reference: whether a rectangle stands in one of cfgs against
// ref. The masks become a window on its corners (eight comparisons),
// and the probe runs behind it unless the window decides the set alone.
func Filter(cfgs ConfigSet, ref geom.Rect) func(geom.Rect) bool {
	w, exact := Compile(cfgs).Window(ref)
	if exact {
		return w.Fits
	}
	return func(r geom.Rect) bool { return w.Fits(r) && cfgs.Has(ConfigOf(r, ref)) }
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
