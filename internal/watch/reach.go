package watch

import (
	"mbrtopo/internal/interval"
	"mbrtopo/internal/mbr"
)

// touchingConfigs holds the configurations whose projections share at
// least one point on both axes — exactly the configurations that can
// realise a relation other than disjoint. A subscription whose
// admissible set stays inside it is only ever affected by objects
// touching its reference rectangle, which is what lets the R-tree over
// subscription references prune candidates.
var touchingConfigs = func() mbr.ConfigSet {
	var touching interval.Set
	for _, r := range interval.All() {
		if r.SharesPoints() {
			touching = touching.Add(r)
		}
	}
	return mbr.ProductSet(touching, touching)
}()
