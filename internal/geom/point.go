// Package geom provides the computational-geometry substrate of the
// reproduction: points, rectangles, simple polygons, and the exact
// topological relation between two contiguous regions under the
// 9-intersection model. The polygon Relate function is the paper's
// refinement step ("examined by using computational geometry
// techniques") and doubles as the ground truth against which every
// MBR-level approximation in the repository is property-tested.
package geom

import "math"

// Eps is the absolute tolerance of every incidence decision (a point
// on a segment, coincident intersection points) and of Validate's
// zero-area test; orientation tests scale it up for segments longer
// than 1, never down, and no function takes another. It suits
// coordinates of magnitude ~1e3, as the workload generators produce:
// ROADMAP item 12 measured misclassified pairs at scale 1e-5 and valid
// regions rejected as zero area at offset 5e6.
const Eps = 1e-9

// Point is a point in the Euclidean plane.
type Point struct {
	X, Y float64
}

// Add returns p translated by v.
func (p Point) Add(v Point) Point { return Point{p.X + v.X, p.Y + v.Y} }

// Sub returns the vector from q to p.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Scale returns p scaled by f about the origin.
func (p Point) Scale(f float64) Point { return Point{p.X * f, p.Y * f} }

// Dot returns the dot product of the two points read as vectors.
func (p Point) Dot(q Point) float64 { return p.X*q.X + p.Y*q.Y }

// Cross returns the z component of the cross product p × q.
func (p Point) Cross(q Point) float64 { return p.X*q.Y - p.Y*q.X }

// Dist returns the Euclidean distance between the points.
func (p Point) Dist(q Point) float64 { return math.Hypot(p.X-q.X, p.Y-q.Y) }

// Eq reports whether the points coincide within Eps.
func (p Point) Eq(q Point) bool {
	return math.Abs(p.X-q.X) <= Eps && math.Abs(p.Y-q.Y) <= Eps
}

// cross2 returns the orientation value of the triple (a, b, c):
// positive when c lies to the left of the directed line a→b.
func cross2(a, b, c Point) float64 {
	return (b.X-a.X)*(c.Y-a.Y) - (b.Y-a.Y)*(c.X-a.X)
}
