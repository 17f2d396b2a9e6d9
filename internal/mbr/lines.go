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
//     interior, so it excludes the forced-overlap configurations
//     (there the line's crossing continuum must meet the region's
//     interior continuum).
var lineCandidatesTable [geom.NumLineRegionRelations]ConfigSet

func init() {
	during := NewConfigSet(Config{interval.During, interval.During})
	lineCandidatesTable[geom.LRDisjoint] = FullConfigSet().Minus(crossingSet())
	lineCandidatesTable[geom.LRTouch] = ProductSet(touchAxes, touchAxes).Minus(forcedOverlapSet())
	lineCandidatesTable[geom.LRCross] = ProductSet(interiorAxes, interiorAxes)
	lineCandidatesTable[geom.LRWithin] = during
	lineCandidatesTable[geom.LRCoveredBy] = ProductSet(coveredByAxes, coveredByAxes)
	lineCandidatesTable[geom.LROnBoundary] = ProductSet(coveredByAxes, coveredByAxes)
}

// LineCandidates returns the MBR configurations a (line, region) pair
// in the given relation may exhibit — the filter row for line queries.
func LineCandidates(r geom.LineRegionRelation) ConfigSet {
	if !r.Valid() {
		panic("mbr.LineCandidates: invalid line-region relation")
	}
	return lineCandidatesTable[r]
}

// PossibleLineRelations returns the line-region relations an observed
// configuration admits.
func PossibleLineRelations(c Config) []geom.LineRegionRelation {
	var out []geom.LineRegionRelation
	for _, r := range geom.AllLineRegionRelations() {
		if lineCandidatesTable[r].Has(c) {
			out = append(out, r)
		}
	}
	return out
}
