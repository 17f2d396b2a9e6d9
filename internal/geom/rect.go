package geom

import (
	"fmt"
	"math"

	"mbrtopo/internal/interval"
)

// Rect is an axis-aligned rectangle, the Minimum Bounding Rectangle
// representation the paper studies: "each object q is represented as an
// ordered pair (q_l, q_u) of points that correspond to the lower left
// and the upper right point of the MBR".
type Rect struct {
	Min, Max Point
}

// R is shorthand for constructing a Rect from coordinates.
func R(minX, minY, maxX, maxY float64) Rect {
	return Rect{Point{minX, minY}, Point{maxX, maxY}}
}

// Valid reports whether the rectangle is non-degenerate in both axes
// (the paper's constraint X(p_l) < X(p_u) ∧ Y(p_l) < Y(p_u)).
func (r Rect) Valid() bool {
	return r.Min.X < r.Max.X && r.Min.Y < r.Max.Y
}

// XInterval returns the projection of the rectangle on the x axis.
func (r Rect) XInterval() interval.Interval { return interval.Interval{Lo: r.Min.X, Hi: r.Max.X} }

// YInterval returns the projection of the rectangle on the y axis.
func (r Rect) YInterval() interval.Interval { return interval.Interval{Lo: r.Min.Y, Hi: r.Max.Y} }

// Width returns the extent along x.
func (r Rect) Width() float64 { return r.Max.X - r.Min.X }

// Height returns the extent along y.
func (r Rect) Height() float64 { return r.Max.Y - r.Min.Y }

// Area returns the rectangle's area.
func (r Rect) Area() float64 { return r.Width() * r.Height() }

// Margin returns half the perimeter (the R*-tree's margin measure).
func (r Rect) Margin() float64 { return r.Width() + r.Height() }

// Center returns the rectangle's center point.
func (r Rect) Center() Point {
	return Point{(r.Min.X + r.Max.X) / 2, (r.Min.Y + r.Max.Y) / 2}
}

// Union returns the smallest rectangle covering both r and s.
func (r Rect) Union(s Rect) Rect {
	return Rect{
		Min: Point{min(r.Min.X, s.Min.X), min(r.Min.Y, s.Min.Y)},
		Max: Point{max(r.Max.X, s.Max.X), max(r.Max.Y, s.Max.Y)},
	}
}

// Intersect returns the common rectangle of r and s and whether it is
// non-degenerate (shares interior). A rectangle that only shares an
// edge or corner yields ok=false.
func (r Rect) Intersect(s Rect) (Rect, bool) {
	out := Rect{
		Min: Point{max(r.Min.X, s.Min.X), max(r.Min.Y, s.Min.Y)},
		Max: Point{min(r.Max.X, s.Max.X), min(r.Max.Y, s.Max.Y)},
	}
	return out, out.Valid()
}

// Intersects reports whether the closed rectangles share at least one
// point (the traditional not_disjoint test of spatial access methods).
func (r Rect) Intersects(s Rect) bool {
	return r.Min.X <= s.Max.X && s.Min.X <= r.Max.X &&
		r.Min.Y <= s.Max.Y && s.Min.Y <= r.Max.Y
}

// IntersectsInterior reports whether the rectangles share interior
// points.
func (r Rect) IntersectsInterior(s Rect) bool {
	return r.Min.X < s.Max.X && s.Min.X < r.Max.X &&
		r.Min.Y < s.Max.Y && s.Min.Y < r.Max.Y
}

// ContainsRect reports whether s ⊆ r (closed containment).
func (r Rect) ContainsRect(s Rect) bool {
	return r.Min.X <= s.Min.X && s.Max.X <= r.Max.X &&
		r.Min.Y <= s.Min.Y && s.Max.Y <= r.Max.Y
}

// ContainsPoint reports whether p lies in the closed rectangle.
func (r Rect) ContainsPoint(p Point) bool {
	return r.Min.X <= p.X && p.X <= r.Max.X && r.Min.Y <= p.Y && p.Y <= r.Max.Y
}

// Enlarge returns the area increase needed for r to cover s.
func (r Rect) Enlarge(s Rect) float64 {
	return r.Union(s).Area() - r.Area()
}

// OverlapArea returns the area shared by the two rectangles.
func (r Rect) OverlapArea(s Rect) float64 {
	w := min(r.Max.X, s.Max.X) - max(r.Min.X, s.Min.X)
	if w <= 0 {
		return 0
	}
	h := min(r.Max.Y, s.Max.Y) - max(r.Min.Y, s.Min.Y)
	if h <= 0 {
		return 0
	}
	return w * h
}

// DistToPoint returns the Euclidean distance from p to the closed
// rectangle (the kNN MINDIST measure); zero when p lies inside.
func (r Rect) DistToPoint(p Point) float64 {
	return math.Hypot(r.Gaps(p))
}

// Gaps returns how far p lies outside the closed rectangle along each
// axis (zero on an axis where p is within its extent). The larger of
// the two never exceeds DistToPoint, so a caller can reject by it
// before paying for the square root.
func (r Rect) Gaps(p Point) (dx, dy float64) {
	return max(r.Min.X-p.X, 0, p.X-r.Max.X), max(r.Min.Y-p.Y, 0, p.Y-r.Max.Y)
}

// Grow returns the rectangle expanded by d on every side.
func (r Rect) Grow(d float64) Rect {
	return Rect{Point{r.Min.X - d, r.Min.Y - d}, Point{r.Max.X + d, r.Max.Y + d}}
}

// Polygon returns the rectangle as a counter-clockwise simple polygon.
func (r Rect) Polygon() Polygon {
	return Polygon{
		{r.Min.X, r.Min.Y},
		{r.Max.X, r.Min.Y},
		{r.Max.X, r.Max.Y},
		{r.Min.X, r.Max.Y},
	}
}

func (r Rect) String() string {
	return fmt.Sprintf("[%g %g; %g %g]", r.Min.X, r.Min.Y, r.Max.X, r.Max.Y)
}
