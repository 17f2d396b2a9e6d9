package geom

import (
	"math"
	"sort"
)

// Segment is a closed line segment between two points.
type Segment struct {
	A, B Point
}

// Length returns the segment's Euclidean length.
func (s Segment) Length() float64 { return s.A.Dist(s.B) }

// Midpoint returns the segment's midpoint.
func (s Segment) Midpoint() Point {
	return Point{(s.A.X + s.B.X) / 2, (s.A.Y + s.B.Y) / 2}
}

// At returns the point at parameter t ∈ [0,1] along the segment.
func (s Segment) At(t float64) Point {
	return Point{s.A.X + t*(s.B.X-s.A.X), s.A.Y + t*(s.B.Y-s.A.Y)}
}

// Bounds returns the segment's bounding rectangle (possibly degenerate).
func (s Segment) Bounds() Rect {
	return Rect{
		Min: Point{min(s.A.X, s.B.X), min(s.A.Y, s.B.Y)},
		Max: Point{max(s.A.X, s.B.X), max(s.A.Y, s.B.Y)},
	}
}

// DistToPoint returns the distance from p to the closed segment.
func (s Segment) DistToPoint(p Point) float64 {
	d := s.B.Sub(s.A)
	l2 := d.Dot(d)
	if l2 == 0 {
		return p.Dist(s.A)
	}
	t := p.Sub(s.A).Dot(d) / l2
	t = max(0, min(1, t))
	return p.Dist(s.At(t))
}

// ContainsPoint reports whether p lies on the closed segment within Eps.
func (s Segment) ContainsPoint(p Point) bool {
	return s.DistToPoint(p) <= Eps
}

// paramOf returns the parameter t of the projection of p onto the
// segment's supporting line (unclamped).
func (s Segment) paramOf(p Point) float64 {
	d := s.B.Sub(s.A)
	l2 := d.Dot(d)
	if l2 == 0 {
		return 0
	}
	return p.Sub(s.A).Dot(d) / l2
}

// pieces splits s where it meets the segments along: it hands met (when
// not nil) every meeting point, and piece the parameters t0 < t1 of
// each piece of s between consecutive splits, in order along s, leaving
// out pieces of 2·Eps or less. Every exact refinement walks a boundary
// this way and locates each piece by its midpoint.
func (s Segment) pieces(along []Segment, met func(Point), piece func(t0, t1 float64)) {
	ts := []float64{0, 1}
	for _, a := range along {
		pts, _ := s.Intersections(a)
		for _, p := range pts {
			if met != nil {
				met(p)
			}
			if t := s.paramOf(p); t > Eps && t < 1-Eps {
				ts = append(ts, t)
			}
		}
	}
	sort.Float64s(ts)
	for k := 0; k+1 < len(ts); k++ {
		if ts[k+1]-ts[k] > 2*Eps {
			piece(ts[k], ts[k+1])
		}
	}
}

// Intersections returns the points where the two closed segments meet:
// nothing when disjoint, one point for a crossing or touch, and the two
// overlap endpoints when the segments are collinear and overlap. The
// Crosses result reports whether the segments cross transversally at a
// point interior to both (the strongest form of boundary intersection).
func (s Segment) Intersections(t Segment) (pts []Point, crosses bool) {
	if !s.Bounds().Grow(Eps).Intersects(t.Bounds().Grow(Eps)) {
		return nil, false
	}
	d1 := cross2(t.A, t.B, s.A)
	d2 := cross2(t.A, t.B, s.B)
	d3 := cross2(s.A, s.B, t.A)
	d4 := cross2(s.A, s.B, t.B)

	// Scale-aware tolerance for the orientation tests.
	scale := max(s.Length(), t.Length())
	tol := Eps * max(1, scale)

	z1, z2 := math.Abs(d1) <= tol, math.Abs(d2) <= tol
	z3, z4 := math.Abs(d3) <= tol, math.Abs(d4) <= tol

	if z1 && z2 && z3 && z4 {
		// Collinear: report the overlap endpoints (0, 1, or 2 points).
		var out []Point
		add := func(p Point) {
			for _, q := range out {
				if q.Eq(p) {
					return
				}
			}
			out = append(out, p)
		}
		for _, p := range []Point{s.A, s.B} {
			if t.ContainsPoint(p) {
				add(p)
			}
		}
		for _, p := range []Point{t.A, t.B} {
			if s.ContainsPoint(p) {
				add(p)
			}
		}
		return out, false
	}

	properStraddleS := (d1 > tol && d2 < -tol) || (d1 < -tol && d2 > tol)
	properStraddleT := (d3 > tol && d4 < -tol) || (d3 < -tol && d4 > tol)
	if properStraddleS && properStraddleT {
		// Transversal crossing; solve for the intersection point.
		p := lineIntersection(s, t)
		interiorS := s.paramOf(p) > Eps && s.paramOf(p) < 1-Eps
		interiorT := t.paramOf(p) > Eps && t.paramOf(p) < 1-Eps
		return []Point{p}, interiorS && interiorT
	}

	// Touching cases: an endpoint of one segment lies on the other.
	var out []Point
	add := func(p Point) {
		for _, q := range out {
			if q.Eq(p) {
				return
			}
		}
		out = append(out, p)
	}
	if (z1 || z2) || (z3 || z4) {
		if z1 && t.ContainsPoint(s.A) {
			add(s.A)
		}
		if z2 && t.ContainsPoint(s.B) {
			add(s.B)
		}
		if z3 && s.ContainsPoint(t.A) {
			add(t.A)
		}
		if z4 && s.ContainsPoint(t.B) {
			add(t.B)
		}
	}
	return out, false
}

// lineIntersection returns the intersection of the supporting lines of
// two non-parallel segments.
func lineIntersection(s, t Segment) Point {
	d1 := s.B.Sub(s.A)
	d2 := t.B.Sub(t.A)
	den := d1.Cross(d2)
	u := t.A.Sub(s.A).Cross(d2) / den
	return s.At(u)
}
