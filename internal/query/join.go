package query

import (
	"context"
	"fmt"

	"mbrtopo/internal/geom"
	"mbrtopo/internal/index"
	"mbrtopo/internal/rtree"
	"mbrtopo/internal/topo"
)

// JoinPair is one result of a topological spatial join.
type JoinPair struct {
	LeftOID, RightOID   uint64
	LeftRect, RightRect geom.Rect
	// LeftText and RightText are the rectangles in wire form on a
	// filter-level pair whose leaves had them rendered (rtree.Hit.Text),
	// empty otherwise. They save a server rendering the same stored
	// floats again, nothing more: the rectangles are the answer.
	LeftText, RightText string
}

// JoinResult bundles join pairs with cost statistics.
type JoinResult struct {
	Pairs []JoinPair
	Stats Stats
}

// JoinOptions configure the join functions.
type JoinOptions struct {
	// LeftObjects / RightObjects enable exact refinement. When nil the
	// join returns filter-level candidate pairs (configurations
	// admissible for the relation set).
	LeftObjects, RightObjects ObjectStore
	// NonContiguous states that the indexed objects may have several
	// components, so the filter takes the Section 7 candidate tables, as
	// Processor.NonContiguous does. Only a filter-only join needs it:
	// the stores decide for themselves and for each other (ObjectStore),
	// and a store that is not a MapStore takes the Section 7 tables on
	// both sides.
	NonContiguous bool
	// KeepSelfPairs keeps (o, o) pairs in self-joins (by default a pair
	// with equal OIDs from joining an index with itself is dropped).
	KeepSelfPairs bool
	// Workers bounds the synchronized-traversal worker pool of the join
	// engine; all workers share the same two pinned tree snapshots.
	// 0 (or negative) uses GOMAXPROCS; 1 traverses serially.
	Workers int
}

// joinTrees rejects access methods the synchronized traversal cannot
// join: both sides must be covering-rectangle trees (R-/R*-trees).
// R+-trees partition space (one object may appear in several leaves),
// so join them by running per-object queries instead.
func joinTrees(left, right index.Index) (*rtree.Tree, *rtree.Tree, error) {
	t1, err := joinSide(left)
	if err != nil {
		return nil, nil, err
	}
	t2, err := joinSide(right)
	if err != nil {
		return nil, nil, err
	}
	return t1, t2, nil
}

func joinSide(idx index.Index) (*rtree.Tree, error) {
	if t, ok := idx.(*rtree.Tree); ok {
		return t, nil
	}
	return nil, fmt.Errorf("query: join requires covering-rectangle trees (got %s)", idx.Name())
}

// CanJoin reports (as an error) whether the two indexes can be joined
// by synchronized traversal. It lets callers that stream results over
// a network reject unsupported pairs before committing to a response.
func CanJoin(left, right index.Index) error {
	_, _, err := joinTrees(left, right)
	return err
}

// JoinStream runs the join, calling yield for every result pair as it
// is found. Without object stores the pairs are filter-level
// candidates; with both stores set each candidate goes through step 4
// (Figure 9 direct accepts, exact geometry otherwise) where the engine
// delivers it, so nothing is tested after the join has been stopped.
// yield is never called concurrently; returning false from it stops
// the join cleanly (nil error). On cancellation JoinStream returns
// ctx.Err() together with the statistics accumulated so far.
func JoinStream(ctx context.Context, left, right index.Index, rels topo.Set, opts JoinOptions, yield func(JoinPair) bool) (Stats, error) {
	if rels.IsEmpty() {
		return Stats{}, fmt.Errorf("query: empty relation set")
	}
	t1, t2, err := joinTrees(left, right)
	if err != nil {
		return Stats{}, err
	}

	// A leaf pair is tested against Table 1, a pair of covering rectangles
	// above such leaves against its join propagation.
	tb := tablesFor(nonContiguous(opts.NonContiguous, nil, opts.LeftObjects, opts.RightObjects))
	cands := tb.candidates(rels)
	dropSelf := left == right && !opts.KeepSelfPairs
	refining := opts.LeftObjects != nil && opts.RightObjects != nil

	// The engine serialises its emit callback across workers, so the
	// counters are plain ints and a refinement error is a plain variable.
	var (
		stats     Stats
		refineErr error
	)
	prune, accept := joinTests(cands)
	ts, err := rtree.JoinCtx(ctx, t1, t2, prune, accept,
		func(a, b rtree.Hit) bool {
			if dropSelf && a.OID == b.OID {
				return true
			}
			stats.Candidates++
			p := JoinPair{LeftOID: a.OID, RightOID: b.OID, LeftRect: a.Rect, RightRect: b.Rect}
			if refining {
				ok, err := step4(&stats, tb.decides(a.Rect, b.Rect, rels), func() (bool, error) {
					lo, ok := opts.LeftObjects.Object(a.OID)
					if !ok {
						return false, fmt.Errorf("query: join refinement needs left object %d", a.OID)
					}
					ro, ok := opts.RightObjects.Object(b.OID)
					if !ok {
						return false, fmt.Errorf("query: join refinement needs right object %d", b.OID)
					}
					return rels.Has(geom.RelateRegions(lo, ro)), nil
				})
				if err != nil {
					refineErr = err
					return false
				}
				if !ok {
					return true
				}
			} else {
				p.LeftText, p.RightText = a.Text(), b.Text()
			}
			return yield(p)
		}, rtree.JoinOptions{Workers: opts.Workers})
	stats.NodeAccesses = ts.NodeAccesses
	if refineErr != nil {
		return stats, refineErr
	}
	return stats, err
}
