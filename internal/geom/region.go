package geom

import (
	"fmt"
	"math"

	"mbrtopo/internal/topo"
)

// Region abstracts a (possibly non-contiguous) 2-dimensional region:
// simple polygons (the paper's contiguous regions) and multi-polygons
// (the paper's Section 7 extension — "geographic entities, such as
// countries with islands, consist of disconnected components").
type Region interface {
	// BoundarySegments returns the region's effective boundary: for a
	// multi-part region, segments where two components abut are
	// interior to the union and are dissolved.
	BoundarySegments() []Segment
	// LocatePoint classifies a point against the region's point set.
	LocatePoint(pt Point) PointLocation
	// InteriorSamples returns one strictly interior point per
	// connected component.
	InteriorSamples() ([]Point, bool)
	// Bounds returns the region's MBR.
	Bounds() Rect
	// Validate checks structural validity.
	Validate() error
}

// Polygon implements Region.
var _ Region = Polygon(nil)

// BoundarySegments returns the polygon's edges.
func (pg Polygon) BoundarySegments() []Segment {
	out := make([]Segment, len(pg))
	for i := range pg {
		out[i] = pg.Edge(i)
	}
	return out
}

// InteriorSamples returns a single interior point (a polygon is one
// component).
func (pg Polygon) InteriorSamples() ([]Point, bool) {
	p, ok := pg.InteriorPoint()
	if !ok {
		return nil, false
	}
	return []Point{p}, true
}

// MultiPolygon is a region made of one or more components whose
// interiors are pairwise disjoint. Components may touch (abut along
// edges or at points); shared boundary segments are interior to the
// union and are dissolved by BoundarySegments. It models the paper's
// non-contiguous geographic entities.
type MultiPolygon []Polygon

var _ Region = MultiPolygon(nil)

// Validate checks every component and pairwise interior disjointness.
func (mp MultiPolygon) Validate() error {
	if len(mp) == 0 {
		return fmt.Errorf("geom: empty multipolygon")
	}
	for i, pg := range mp {
		if err := pg.Validate(); err != nil {
			return fmt.Errorf("geom: component %d: %w", i, err)
		}
	}
	for i := 0; i < len(mp); i++ {
		for j := i + 1; j < len(mp); j++ {
			switch Relate(mp[i], mp[j]) {
			case topo.Disjoint, topo.Meet:
			default:
				return fmt.Errorf("geom: components %d and %d share interior", i, j)
			}
		}
	}
	return nil
}

// Bounds returns the MBR of the union of components.
func (mp MultiPolygon) Bounds() Rect {
	r := mp[0].Bounds()
	for _, pg := range mp[1:] {
		r = r.Union(pg.Bounds())
	}
	return r
}

// Area returns the total area.
func (mp MultiPolygon) Area() float64 {
	a := 0.0
	for _, pg := range mp {
		a += pg.Area()
	}
	return a
}

// BoundarySegments returns the union's boundary: every component edge
// is split at its intersections with sibling boundaries, and pieces
// that run along a sibling's boundary are dropped — because component
// interiors are disjoint, the siblings lie on opposite sides of such a
// piece, making it interior to the union.
func (mp MultiPolygon) BoundarySegments() []Segment {
	if len(mp) == 1 {
		return mp[0].BoundarySegments()
	}
	var out []Segment
	for ci, pg := range mp {
		var siblings []Segment
		for cj, sib := range mp {
			if cj != ci {
				siblings = append(siblings, sib.BoundarySegments()...)
			}
		}
		for i := range pg {
			e := pg.Edge(i)
			e.pieces(siblings, nil, func(t0, t1 float64) {
				mid := e.At((t0 + t1) / 2)
				for cj, sib := range mp {
					if cj != ci && sib.LocatePoint(mid) == PointOnBoundary {
						return // a seam
					}
				}
				out = append(out, Segment{A: e.At(t0), B: e.At(t1)})
			})
		}
	}
	return out
}

// LocatePoint classifies pt against the union of components. A point
// on the shared boundary of two abutting components is interior to the
// union; ambiguous multi-boundary points are resolved by probing a
// small circle around the point.
func (mp MultiPolygon) LocatePoint(pt Point) PointLocation {
	onCount := 0
	for _, pg := range mp {
		switch pg.LocatePoint(pt) {
		case PointInside:
			return PointInside
		case PointOnBoundary:
			onCount++
		}
	}
	switch {
	case onCount == 0:
		return PointOutside
	case onCount == 1:
		return PointOnBoundary
	}
	// On the boundary of several components: interior to the union iff
	// a small neighbourhood is covered. Probe a circle around pt.
	radius := 64 * Eps * (1 + abs(pt.X) + abs(pt.Y))
	for k := 0; k < 16; k++ {
		p := Point{
			X: pt.X + radius*cosTable[k],
			Y: pt.Y + radius*sinTable[k],
		}
		covered := false
		for _, pg := range mp {
			if pg.LocatePoint(p) != PointOutside {
				covered = true
				break
			}
		}
		if !covered {
			return PointOnBoundary
		}
	}
	return PointInside
}

// InteriorSamples returns one interior point per component.
func (mp MultiPolygon) InteriorSamples() ([]Point, bool) {
	out := make([]Point, 0, len(mp))
	for _, pg := range mp {
		p, ok := pg.InteriorPoint()
		if !ok {
			return nil, false
		}
		out = append(out, p)
	}
	return out, true
}

// Translate returns the multipolygon shifted by v.
func (mp MultiPolygon) Translate(v Point) MultiPolygon {
	out := make(MultiPolygon, len(mp))
	for i, pg := range mp {
		out[i] = pg.Translate(v)
	}
	return out
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// cosTable/sinTable hold 16 probing directions, offset from the axes
// to avoid degenerate alignment with rectilinear data.
var cosTable, sinTable [16]float64

func init() {
	for k := 0; k < 16; k++ {
		ang := (float64(k) + 0.37) * (2 * math.Pi / 16)
		cosTable[k] = math.Cos(ang)
		sinTable[k] = math.Sin(ang)
	}
}
