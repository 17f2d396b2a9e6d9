package geom

import "mbrtopo/internal/topo"

// Relate computes the exact 9-intersection topological relation of the
// primary region P with respect to the reference region Q. Both must
// be valid simple polygons (contiguous regions); Relate is the
// refinement step of the paper's 4-step retrieval strategy.
//
// Method: split every boundary edge of P at its intersections with ∂Q
// and classify each resulting piece as inside, on, or outside Q (and
// symmetrically for Q against P). The flags determine the relation:
//
//	no piece of ∂P strictly outside Q  ⇔  P ⊆ Q
//	a piece of ∂P strictly inside Q    ⇒  the interiors intersect
//	any shared boundary point          ⇔  ∂P ∩ ∂Q ≠ ∅
//
// For simple polygons these conditions pin down exactly one of the
// eight mt2 relations.
func Relate(P, Q Polygon) topo.Relation {
	pc := classifyPieces(P.BoundarySegments(), Q, nil)
	qc := classifyPieces(Q.BoundarySegments(), P, nil)
	bb := pc.on || qc.on || pc.touch || qc.touch

	switch {
	case !pc.out && !qc.out && !pc.in && !qc.in:
		return topo.Equal
	case !pc.out: // P ⊆ Q
		if bb {
			return topo.CoveredBy
		}
		return topo.Inside
	case !qc.out: // Q ⊆ P
		if bb {
			return topo.Covers
		}
		return topo.Contains
	case pc.in || qc.in:
		return topo.Overlap
	case bb:
		return topo.Meet
	default:
		return topo.Disjoint
	}
}

// boundaryClass aggregates how the boundary of one region, or a line,
// lies with respect to another region.
type boundaryClass struct {
	out   bool // some boundary piece strictly outside the other region
	in    bool // some boundary piece strictly inside
	on    bool // some boundary piece along the other region's boundary
	touch bool // the boundaries share at least one point
}

// classifyPieces splits each of segs (a region's boundary or a line) at
// its intersections with ∂Q, hands met (when not nil) every meeting
// point, and classifies the piece midpoints against Q.
func classifyPieces(segs []Segment, Q Region, met func(Point)) boundaryClass {
	var c boundaryClass
	qb := Q.Bounds().Grow(Eps)
	qSegs := Q.BoundarySegments()
	for _, e := range segs {
		if !qb.Intersects(e.Bounds()) {
			// Fast path: the whole segment is outside Q's bounding box.
			c.out = true
			continue
		}
		e.pieces(qSegs, func(p Point) {
			c.touch = true
			if met != nil {
				met(p)
			}
		}, func(t0, t1 float64) {
			switch Q.LocatePoint(e.At((t0 + t1) / 2)) {
			case PointInside:
				c.in = true
			case PointOnBoundary:
				c.on = true
			case PointOutside:
				c.out = true
			}
		})
	}
	return c
}
