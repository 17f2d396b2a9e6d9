package mbr

import (
	"mbrtopo/internal/geom"
	"mbrtopo/internal/interval"
)

// This file derives the filter sets for line-against-region queries
// (the paper's Section 7 extension to linear data): for each
// line-region relation, the MBR configurations possible between the
// MBR of a simple line and the MBR of a region.
//
// The derivations mirror the region case with the line in the
// "contained" role:
//
//   - a line cannot contain a region, so there are no covers/contains
//     rows;
//   - LRWithin nests the MBRs strictly per axis (every extreme point
//     of the line is interior to the region): {R9_9};
//   - LRCoveredBy and LROnBoundary keep the line inside the region's
//     closure: i,j ∈ {6,7,9,10};
//   - LRCross requires a line point in the region's interior, hence
//     interior-sharing projections in both axes: i,j ∈ {3..11};
//   - LRDisjoint excludes the crossing set (a line is a continuum, so
//     the Hex argument applies unchanged);
//   - LRTouch requires shared points but no line point in the region's
//     interior, so it excludes the forced-overlap configurations in which
//     the line covers one projection and lies strictly inside the other
//     (there the line's crossing continuum must meet the region's
//     interior continuum). The other forced-overlap configurations rest
//     on the crossing object's interior, which a line lacks: it may run
//     along the region's boundary where their MBRs share an edge.
//
// Both exclusions need a connected region. Against a region of several
// components (the Section 7 extension) a line may pass between them,
// so there, as in the region tables, disjoint admits every
// configuration and touch every point-sharing one; the other rows
// rest on containment and hold unchanged.
var lineCandidatesTable, lineNonContiguousTable [geom.NumLineRegionRelations]ConfigSet

func init() {
	during := NewConfigSet(Config{interval.During, interval.During})
	lineCandidatesTable[geom.LRDisjoint] = FullConfigSet().Minus(crossingSet())
	strict := interval.NewSet(interval.During)
	lineCandidatesTable[geom.LRTouch] = ProductSet(touchAxes, touchAxes).Minus(ProductSet(coversAxes, strict)).Minus(ProductSet(strict, coversAxes))
	lineCandidatesTable[geom.LRCross] = ProductSet(interiorAxes, interiorAxes)
	lineCandidatesTable[geom.LRWithin] = during
	lineCandidatesTable[geom.LRCoveredBy] = ProductSet(coveredByAxes, coveredByAxes)
	lineCandidatesTable[geom.LROnBoundary] = ProductSet(coveredByAxes, coveredByAxes)
	lineNonContiguousTable = lineCandidatesTable
	lineNonContiguousTable[geom.LRDisjoint] = FullConfigSet()
	lineNonContiguousTable[geom.LRTouch] = ProductSet(touchAxes, touchAxes)
}

// LineCandidates returns the MBR configurations a (line, region) pair
// in the given relation may exhibit — the filter row for line queries —
// against a contiguous region, or one that may have several components.
func LineCandidates(r geom.LineRegionRelation, nonContiguous bool) ConfigSet {
	if !r.Valid() {
		panic("mbr.LineCandidates: invalid line-region relation")
	}
	if nonContiguous {
		return lineNonContiguousTable[r]
	}
	return lineCandidatesTable[r]
}

// PossibleLineRelations returns the line-region relations an observed
// configuration admits.
func PossibleLineRelations(c Config, nonContiguous bool) []geom.LineRegionRelation {
	var out []geom.LineRegionRelation
	for _, r := range geom.AllLineRegionRelations() {
		if LineCandidates(r, nonContiguous).Has(c) {
			out = append(out, r)
		}
	}
	return out
}
