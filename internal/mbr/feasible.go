package mbr

import (
	"mbrtopo/internal/geom"
	"mbrtopo/internal/interval"
)

// RegionFeasible reports whether a partition region (an R+-tree node
// rectangle) could lead to a stored MBR whose configuration with the
// reference lies in s. R+-trees register an object in every leaf whose
// region its rectangle's interior intersects, so a node must be
// visited exactly when some rectangle in an admissible configuration
// shares interior with the node's region. The test decomposes per
// axis: such a rectangle exists iff for some (i, j) ∈ s an interval in
// relation i to the reference's x-projection meets the region's
// x-interior, and likewise in y (the axes are independent).
func RegionFeasible(s ConfigSet, region, ref geom.Rect) bool {
	fx := interval.FeasibleWithin(region.XInterval(), ref.XInterval())
	fy := interval.FeasibleWithin(region.YInterval(), ref.YInterval())
	return !s.Intersect(ProductSet(fx, fy)).IsEmpty()
}

// PartitionNodePredicate builds the node predicate for partition-based
// access methods (R+-trees), where node rectangles are regions rather
// than covers. It decomposes the candidate set by how tightly the
// qualifying rectangles are anchored to the reference:
//
//   - covers-type configurations (rect ⊇ ref): the rectangle contains
//     the reference center, so it is registered along the single
//     region path containing that point;
//   - other touching configurations (rect shares ≥1 point with ref):
//     such a rectangle is always registered in at least one leaf whose
//     region meets the closed reference (its interior accumulates at
//     the shared point, and leaf regions are finitely many closed sets
//     covering the plane), so a window descent suffices;
//   - remaining (disjoint-type) configurations: the rectangle can lie
//     anywhere its per-axis reachable spans allow; RegionFeasible is
//     the tightest per-axis test.
//
// The returned predicate is the disjunction of the applicable parts.
func PartitionNodePredicate(s ConfigSet, ref geom.Rect) func(geom.Rect) bool {
	coversProduct := ProductSet(coversAxes, coversAxes)
	touch := ProductSet(touchAxes, touchAxes)

	sCover := s.Intersect(coversProduct)
	sTouch := s.Intersect(touch).Minus(sCover)
	sRest := s.Minus(touch)

	center := ref.Center()
	needCover := !sCover.IsEmpty()
	needTouch := !sTouch.IsEmpty()
	needRest := !sRest.IsEmpty()
	return func(region geom.Rect) bool {
		if needCover && region.ContainsPoint(center) {
			return true
		}
		if needTouch && region.Intersects(ref) {
			return true
		}
		if needRest && RegionFeasible(sRest, region, ref) {
			return true
		}
		return false
	}
}
