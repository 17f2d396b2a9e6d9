package rtree

import "fmt"

// SplitAlgorithm selects the node-splitting policy of a Tree.
type SplitAlgorithm int

// The implemented split algorithms.
const (
	// SplitQuadratic is Guttman's quadratic-cost split (the setting the
	// paper uses for the original R-tree).
	SplitQuadratic SplitAlgorithm = iota
	// SplitLinear is Guttman's linear-cost split.
	SplitLinear
	// SplitRStar is the R*-tree topological split: axis by minimum
	// margin sum, distribution by minimum overlap.
	SplitRStar
)

func (s SplitAlgorithm) String() string {
	switch s {
	case SplitQuadratic:
		return "quadratic"
	case SplitLinear:
		return "linear"
	case SplitRStar:
		return "rstar"
	}
	return fmt.Sprintf("SplitAlgorithm(%d)", int(s))
}

// The node capacity M is what fits the page (store.cap); the other two
// tunables of the paper's trees are its settings.
const (
	// minFillRatio is the minimum fill ratio m/M: 40% for both the
	// R-tree and the R*-tree.
	minFillRatio = 0.4
	// reinsertFraction is the share of an overflowing node's entries
	// that R* forced reinsertion takes out, farthest first.
	reinsertFraction = 0.3
)

// Options configure a Tree.
type Options struct {
	// Split selects the splitting algorithm.
	Split SplitAlgorithm
	// RStarChooseSubtree enables the R* subtree choice (minimum overlap
	// enlargement at the level above the leaves).
	RStarChooseSubtree bool
	// ForcedReinsert enables the R* forced reinsertion of the 30%
	// farthest entries on first overflow per level.
	ForcedReinsert bool
}

// minEntries returns m = ⌈minFillRatio·M⌉ for node capacity M, at
// least 1, at most M/2.
func minEntries(capacity int) int {
	m := int(float64(capacity)*minFillRatio + 0.999999)
	if m > capacity/2 {
		m = capacity / 2
	}
	if m < 1 {
		m = 1
	}
	return m
}
