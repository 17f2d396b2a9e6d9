package geom

import (
	"fmt"
	"math"
)

// Polygon is a simple polygon given by its vertex ring (either
// orientation; no repeated closing vertex). A Polygon models the
// paper's contiguous region object: homogeneously 2-dimensional,
// connected, with connected boundary.
type Polygon []Point

// PointLocation classifies a point against a region.
type PointLocation int

// The three point-in-region outcomes.
const (
	PointOutside PointLocation = iota
	PointOnBoundary
	PointInside
)

func (l PointLocation) String() string {
	switch l {
	case PointOutside:
		return "outside"
	case PointOnBoundary:
		return "boundary"
	case PointInside:
		return "inside"
	}
	return fmt.Sprintf("geom.PointLocation(%d)", int(l))
}

// Edge returns the i-th boundary segment.
func (pg Polygon) Edge(i int) Segment {
	return Segment{pg[i], pg[(i+1)%len(pg)]}
}

// SignedArea returns the polygon's signed area (positive when the ring
// is counter-clockwise).
func (pg Polygon) SignedArea() float64 {
	var s float64
	for i, p := range pg {
		q := pg[(i+1)%len(pg)]
		s += p.Cross(q)
	}
	return s / 2
}

// Area returns the polygon's (unsigned) area.
func (pg Polygon) Area() float64 { return math.Abs(pg.SignedArea()) }

// Bounds returns the polygon's Minimum Bounding Rectangle. By
// construction the MBR is crisp: the polygon is fully contained and
// touches all four sides.
func (pg Polygon) Bounds() Rect {
	if len(pg) == 0 {
		return Rect{}
	}
	r := Rect{pg[0], pg[0]}
	for _, p := range pg[1:] {
		r.Min.X = min(r.Min.X, p.X)
		r.Min.Y = min(r.Min.Y, p.Y)
		r.Max.X = max(r.Max.X, p.X)
		r.Max.Y = max(r.Max.Y, p.Y)
	}
	return r
}

// Translate returns the polygon shifted by v.
func (pg Polygon) Translate(v Point) Polygon {
	out := make(Polygon, len(pg))
	for i, p := range pg {
		out[i] = p.Add(v)
	}
	return out
}

// ScaleAbout returns the polygon scaled by f about point c.
func (pg Polygon) ScaleAbout(c Point, f float64) Polygon {
	out := make(Polygon, len(pg))
	for i, p := range pg {
		out[i] = c.Add(p.Sub(c).Scale(f))
	}
	return out
}

// Reverse returns the polygon with opposite orientation.
func (pg Polygon) Reverse() Polygon {
	out := make(Polygon, len(pg))
	for i, p := range pg {
		out[len(pg)-1-i] = p
	}
	return out
}

// Rotate returns the polygon with the vertex ring rotated so that it
// starts at vertex k (the region is unchanged).
func (pg Polygon) Rotate(k int) Polygon {
	n := len(pg)
	out := make(Polygon, n)
	for i := range pg {
		out[i] = pg[(i+k)%n]
	}
	return out
}

// Validate checks that the polygon is a usable contiguous region: at
// least 3 vertices, non-zero area, no repeated consecutive vertices,
// and a simple (non-self-intersecting) boundary.
func (pg Polygon) Validate() error {
	if len(pg) < 3 {
		return fmt.Errorf("geom: polygon needs ≥3 vertices, has %d", len(pg))
	}
	for i := range pg {
		if pg[i].Eq(pg[(i+1)%len(pg)]) {
			return fmt.Errorf("geom: repeated consecutive vertex at %d", i)
		}
	}
	if pg.Area() <= Eps {
		return fmt.Errorf("geom: polygon has (near-)zero area")
	}
	if !pg.IsSimple() {
		return fmt.Errorf("geom: polygon boundary self-intersects")
	}
	return nil
}

// IsSimple reports whether no two non-adjacent edges intersect and
// adjacent edges share only their common vertex.
func (pg Polygon) IsSimple() bool {
	n := len(pg)
	for i := 0; i < n; i++ {
		ei := pg.Edge(i)
		for j := i + 1; j < n; j++ {
			ej := pg.Edge(j)
			pts, crosses := ei.Intersections(ej)
			if crosses {
				return false
			}
			adjacent := j == i+1 || (i == 0 && j == n-1)
			switch {
			case adjacent:
				// Adjacent edges must meet exactly at the shared vertex.
				if len(pts) > 1 {
					return false
				}
				if len(pts) == 1 {
					shared := pg[(i+1)%n]
					if i == 0 && j == n-1 {
						shared = pg[0]
					}
					if !pts[0].Eq(shared) {
						return false
					}
				}
			default:
				if len(pts) > 0 {
					return false
				}
			}
		}
	}
	return true
}

// LocatePoint classifies pt against the region: inside, on the
// boundary (within Eps), or outside.
func (pg Polygon) LocatePoint(pt Point) PointLocation {
	for i := range pg {
		if pg.Edge(i).DistToPoint(pt) <= Eps {
			return PointOnBoundary
		}
	}
	// Ray casting with the half-open edge rule.
	inside := false
	n := len(pg)
	for i := 0; i < n; i++ {
		a, b := pg[i], pg[(i+1)%n]
		if (a.Y > pt.Y) != (b.Y > pt.Y) {
			x := a.X + (pt.Y-a.Y)*(b.X-a.X)/(b.Y-a.Y)
			if pt.X < x {
				inside = !inside
			}
		}
	}
	if inside {
		return PointInside
	}
	return PointOutside
}

// InteriorPoint returns a point strictly inside the region. It walks
// the vertices and tests points slightly inset along the angle
// bisector; for a valid simple polygon one of them is interior.
func (pg Polygon) InteriorPoint() (Point, bool) {
	// First try the centroid (works for convex and most star-shaped
	// polygons, which is what the generators produce).
	c := pg.centroid()
	if pg.LocatePoint(c) == PointInside {
		return c, true
	}
	// Fall back: midpoints of diagonals between vertex i and every
	// other vertex; for a simple polygon at least one diagonal midpoint
	// is interior.
	n := len(pg)
	for i := 0; i < n; i++ {
		for j := i + 2; j < n; j++ {
			m := Segment{pg[i], pg[j]}.Midpoint()
			if pg.LocatePoint(m) == PointInside {
				return m, true
			}
		}
	}
	return Point{}, false
}

func (pg Polygon) centroid() Point {
	var cx, cy, a float64
	n := len(pg)
	for i := 0; i < n; i++ {
		p, q := pg[i], pg[(i+1)%n]
		w := p.Cross(q)
		cx += (p.X + q.X) * w
		cy += (p.Y + q.Y) * w
		a += w
	}
	if a == 0 {
		return pg[0]
	}
	return Point{cx / (3 * a), cy / (3 * a)}
}
