package geom

import (
	"fmt"

	"mbrtopo/internal/topo"
)

// PolyLine is a simple open polyline: a linear geographic feature
// (road, river, pipeline). The paper's Section 7 lists linear data as
// the extension requiring further machinery; this file provides the
// exact geometry — the 9-intersection classification of a line against
// a region — and package mbr derives the corresponding filter sets.
//
// Under the 9-intersection model a simple line has an interior (the
// line minus its endpoints) and a boundary (the two endpoints).
type PolyLine []Point

// Validate checks that the polyline has at least two distinct
// vertices, no repeated consecutive vertices, does not close into a
// ring, and does not self-intersect.
func (pl PolyLine) Validate() error {
	if len(pl) < 2 {
		return fmt.Errorf("geom: polyline needs ≥2 vertices, has %d", len(pl))
	}
	for i := 0; i+1 < len(pl); i++ {
		if pl[i].Eq(pl[i+1]) {
			return fmt.Errorf("geom: repeated consecutive vertex at %d", i)
		}
	}
	if pl[0].Eq(pl[len(pl)-1]) {
		return fmt.Errorf("geom: polyline closes into a ring")
	}
	n := len(pl) - 1
	for i := 0; i < n; i++ {
		si := pl.Seg(i)
		for j := i + 1; j < n; j++ {
			pts, crosses := si.Intersections(pl.Seg(j))
			if crosses {
				return fmt.Errorf("geom: polyline segments %d and %d cross", i, j)
			}
			if j == i+1 {
				if len(pts) > 1 || (len(pts) == 1 && !pts[0].Eq(pl[j])) {
					return fmt.Errorf("geom: polyline segments %d and %d overlap", i, j)
				}
			} else if len(pts) > 0 {
				return fmt.Errorf("geom: polyline segments %d and %d touch", i, j)
			}
		}
	}
	return nil
}

// NumSegs returns the number of segments.
func (pl PolyLine) NumSegs() int { return len(pl) - 1 }

// Seg returns the i-th segment.
func (pl PolyLine) Seg(i int) Segment { return Segment{A: pl[i], B: pl[i+1]} }

// Length returns the total length.
func (pl PolyLine) Length() float64 {
	total := 0.0
	for i := 0; i < pl.NumSegs(); i++ {
		total += pl.Seg(i).Length()
	}
	return total
}

// Bounds returns the polyline's MBR. Note that an axis-aligned line
// has a degenerate MBR, which MBR-based access methods cannot store
// directly (the paper's Section 7 points out that linear data changes
// the projection algebra); callers index such lines with an
// ε-padded rectangle and the non-crisp machinery.
func (pl PolyLine) Bounds() Rect {
	r := Rect{Min: pl[0], Max: pl[0]}
	for _, p := range pl[1:] {
		r.Min.X = min(r.Min.X, p.X)
		r.Min.Y = min(r.Min.Y, p.Y)
		r.Max.X = max(r.Max.X, p.X)
		r.Max.Y = max(r.Max.Y, p.Y)
	}
	return r
}

// Translate returns the polyline shifted by v.
func (pl PolyLine) Translate(v Point) PolyLine {
	out := make(PolyLine, len(pl))
	for i, p := range pl {
		out[i] = p.Add(v)
	}
	return out
}

// LineRegionRelation names the topological relation of a line with
// respect to a region: the partition of line-region configurations by
// the paper-relevant distinctions (each corresponds to a family of
// 9-intersection matrices; RelateLineRegion also returns the exact
// matrix).
type LineRegionRelation uint8

// The line-region relations.
const (
	// LRDisjoint: the line and the region share no point.
	LRDisjoint LineRegionRelation = iota
	// LRTouch: the line meets the region's boundary only (no point of
	// the line lies in the region's interior or... it may run along the
	// boundary, but never enters the interior, and part of it lies
	// outside).
	LRTouch
	// LRCross: the line has points both in the region's interior and in
	// its exterior.
	LRCross
	// LRWithin: the line lies entirely in the region's interior.
	LRWithin
	// LRCoveredBy: the line lies in the closed region, touching the
	// boundary, with at least part in the interior.
	LRCoveredBy
	// LROnBoundary: the line runs entirely along the region's boundary.
	LROnBoundary
)

// NumLineRegionRelations counts the defined line-region relations.
const NumLineRegionRelations = 6

var lrNames = [NumLineRegionRelations]string{
	"lr_disjoint", "lr_touch", "lr_cross", "lr_within", "lr_covered_by", "lr_on_boundary",
}

func (r LineRegionRelation) String() string {
	if int(r) < len(lrNames) {
		return lrNames[r]
	}
	return fmt.Sprintf("geom.LineRegionRelation(%d)", uint8(r))
}

// Valid reports whether r is a defined relation.
func (r LineRegionRelation) Valid() bool { return r < NumLineRegionRelations }

// AllLineRegionRelations returns the six relations.
func AllLineRegionRelations() []LineRegionRelation {
	out := make([]LineRegionRelation, NumLineRegionRelations)
	for i := range out {
		out[i] = LineRegionRelation(i)
	}
	return out
}

// RelateLineRegion classifies the line against the region, returning
// both the named relation and the full 9-intersection matrix (line
// interior/boundary/exterior against region interior/boundary/
// exterior).
func RelateLineRegion(L PolyLine, R Region) (LineRegionRelation, topo.Matrix) {
	segs := make([]Segment, L.NumSegs())
	for i := range segs {
		segs[i] = L.Seg(i)
	}
	var touchInterior bool
	c := classifyPieces(segs, R, func(p Point) {
		// Contact counts as line-interior contact unless it is one of
		// the line's two endpoints.
		if !p.Eq(L[0]) && !p.Eq(L[len(L)-1]) {
			touchInterior = true
		}
	})
	in, on, out := c.in, c.on, c.out
	endA := R.LocatePoint(L[0])
	endB := R.LocatePoint(L[len(L)-1])

	// Assemble the 9-intersection matrix. Row 0: line interior; row 1:
	// line boundary (the endpoints); row 2: line exterior. The line's
	// exterior is the whole plane minus the line, so it always meets
	// the region's interior, boundary and exterior (a line cannot cover
	// a 2D set or a closed boundary curve).
	var m topo.Matrix
	m[topo.Interior][topo.Interior] = in
	m[topo.Interior][topo.Boundary] = on || touchInterior
	m[topo.Interior][topo.Exterior] = out
	m[topo.Boundary][topo.Interior] = endA == PointInside || endB == PointInside
	m[topo.Boundary][topo.Boundary] = endA == PointOnBoundary || endB == PointOnBoundary
	m[topo.Boundary][topo.Exterior] = endA == PointOutside || endB == PointOutside
	m[topo.Exterior][topo.Interior] = true
	m[topo.Exterior][topo.Boundary] = true
	m[topo.Exterior][topo.Exterior] = true

	// Endpoint contact alone also makes the boundaries/closures touch.
	sharesBoundary := on || touchInterior || endA == PointOnBoundary || endB == PointOnBoundary
	insideAny := in || endA == PointInside || endB == PointInside
	outsideAny := out || endA == PointOutside || endB == PointOutside

	switch {
	case !insideAny && !sharesBoundary && !on:
		return LRDisjoint, m
	case insideAny && outsideAny:
		return LRCross, m
	case insideAny && !outsideAny:
		if sharesBoundary {
			return LRCoveredBy, m
		}
		return LRWithin, m
	case !insideAny && !outsideAny:
		// Everything runs along the boundary.
		return LROnBoundary, m
	default:
		return LRTouch, m
	}
}

// RelatePointRegion classifies a point against a region (point data,
// the paper's Section 7): PointInside, PointOnBoundary or
// PointOutside.
func RelatePointRegion(p Point, R Region) PointLocation {
	return R.LocatePoint(p)
}
