package mbr

import (
	"mbrtopo/internal/interval"
	"mbrtopo/internal/topo"
)

// This file implements the paper's Section 6 (non-crisp MBRs): when
// stored MBRs may be slightly larger than the crisp minimum bounding
// rectangles (inexact geometry code, floating-point rounding, integer
// snapping), the filter step must also retrieve the configurations
// reachable from the crisp ones by up to two conceptual-neighbourhood
// steps of enlargement per axis — the paper's Table 5.

// Expand2 returns s expanded per axis by first- and second-degree
// conceptual neighbours: the paper's Table 5 retrieval sets, tolerant
// to 2-degree relation deformation.
func Expand2(s ConfigSet) ConfigSet {
	var out ConfigSet
	for _, c := range s.Configs() {
		out = out.Union(ProductSet(interval.Neighbourhood2(c.X), interval.Neighbourhood2(c.Y)))
	}
	return out
}

// CandidatesNonCrisp returns the Table 5 row for relation r: the crisp
// Table 1 configurations expanded by 2-degree neighbourhoods.
func CandidatesNonCrisp(r topo.Relation) ConfigSet {
	return Expand2(Candidates(r))
}
