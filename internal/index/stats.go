package index

import "mbrtopo/internal/rtree"

// StatsProvider is implemented by every backend that can summarise
// its node MBRs (the trees, and the sharded router, which merges its
// tiles' summaries). The query planner feeds on it.
type StatsProvider interface {
	Stats() (*rtree.TreeStats, error)
}

// Every index backend answers Stats.
var (
	_ StatsProvider = (*rtree.Tree)(nil)
	_ StatsProvider = (*rtree.RPlusTree)(nil)
)

// StatsOf returns the index's node-MBR summary, or (nil, nil) when
// the backend has none — callers treat a missing summary as "no
// planner, fall back to the static heuristics".
func StatsOf(idx Index) (*rtree.TreeStats, error) {
	if sp, ok := idx.(StatsProvider); ok {
		return sp.Stats()
	}
	return nil, nil
}
