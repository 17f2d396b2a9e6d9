package query

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"

	"mbrtopo/internal/geom"
	"mbrtopo/internal/index"
	"mbrtopo/internal/interval"
	"mbrtopo/internal/mbr"
	"mbrtopo/internal/rtree"
	"mbrtopo/internal/topo"
)

// JoinPair is one result of a topological spatial join.
type JoinPair struct {
	LeftOID, RightOID   uint64
	LeftRect, RightRect geom.Rect
	// LeftText and RightText are the rectangles in wire form on a
	// filter-level pair whose leaves had them rendered, as Match.Text.
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
	// NonContiguous selects the Section 7 candidate tables.
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

// Tiled is the structural interface of a sharded index (shard.Sharded
// implements it): a routed index whose data lives in per-tile
// sub-indexes. Joins scatter across tile pairs instead of traversing
// through the router, so join work parallelises across shards.
type Tiled interface {
	index.Index
	Tiles() []index.Index
}

// tileSet flattens an index into its joinable tiles: the tiles of a
// Tiled index, or the index itself.
func tileSet(idx index.Index) []index.Index {
	if t, ok := idx.(Tiled); ok {
		return t.Tiles()
	}
	return []index.Index{idx}
}

// CanJoin reports (as an error) whether the two indexes can be joined
// by synchronized traversal. It lets callers that stream results over
// a network reject unsupported pairs before committing to a response.
// Sharded indexes are joinable when their tiles are.
func CanJoin(left, right index.Index) error {
	for _, side := range [][]index.Index{tileSet(left), tileSet(right)} {
		for _, t := range side {
			if _, err := joinSide(t); err != nil {
				return err
			}
		}
	}
	return nil
}

// sweepSafe reports whether every admissible configuration shares at
// least one point on each axis — the soundness condition for the
// engine's plane-sweep matcher and node-MBR clipping, which only
// enumerate axis-overlapping pairs. Every topological relation except
// disjoint implies MBR intersection, so any relation set without
// disjoint qualifies; sets containing disjoint fall back to the
// pruned nested loop (which still dedups child reads and runs on the
// worker pool).
func sweepSafe(cands mbr.ConfigSet) bool {
	xs, ys := cands.XRelations(), cands.YRelations()
	return !xs.Has(interval.Before) && !xs.Has(interval.After) &&
		!ys.Has(interval.Before) && !ys.Has(interval.After)
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
	if _, lt := left.(Tiled); lt {
		return joinSharded(ctx, left, right, rels, opts, yield)
	} else if _, rt := right.(Tiled); rt {
		return joinSharded(ctx, left, right, rels, opts, yield)
	}
	t1, t2, err := joinTrees(left, right)
	if err != nil {
		return Stats{}, err
	}

	// A leaf pair is tested against Table 1, a pair of covering rectangles
	// above such leaves against its join propagation.
	tb := tablesFor(opts.NonContiguous)
	cands := tb.candidates(rels)
	dropSelf := left == right && !opts.KeepSelfPairs
	refining := opts.LeftObjects != nil && opts.RightObjects != nil

	// The engine serialises its emit callback across workers, so the
	// counters are plain ints and a refinement error is a plain variable.
	var (
		stats     Stats
		refineErr error
	)
	ts, err := rtree.JoinCtx(ctx, t1, t2, pairTestFor(mbr.JoinPropagation(cands)).admits, pairTestFor(cands).admits,
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
		}, rtree.JoinOptions{Workers: opts.Workers, Intersecting: sweepSafe(cands)})
	stats.NodeAccesses = ts.NodeAccesses
	if refineErr != nil {
		return stats, refineErr
	}
	return stats, err
}

// joinSharded scatters a join across tile pairs. Every (left tile,
// right tile) combination whose root bounds admit a configuration in
// the join propagation is a unit of work — explicit cross-tile border
// pairs included, since under single assignment two rectangles that
// match can live in different tiles. Pairs run on a worker pool (the
// per-pair engines traverse serially then, so parallelism comes from
// the shards), results merge through one serialising yield, and a
// self-join drops equal-OID pairs at the merge point exactly like the
// single-index engine does.
func joinSharded(ctx context.Context, left, right index.Index, rels topo.Set, opts JoinOptions, yield func(JoinPair) bool) (Stats, error) {
	leftTiles, rightTiles := tileSet(left), tileSet(right)
	for _, side := range [][]index.Index{leftTiles, rightTiles} {
		for _, t := range side {
			if _, err := joinSide(t); err != nil {
				return Stats{}, err
			}
		}
	}

	cands := tablesFor(opts.NonContiguous).candidates(rels)
	feasible := pairTestFor(mbr.JoinPropagation(cands)).admits
	dropSelf := left == right && !opts.KeepSelfPairs

	// Enumerate feasible tile pairs: the same root-root propagation test
	// the engine runs first, applied to tile bounds, culls pairs that
	// cannot contribute (conservative — bounds cover members). Both
	// orders of a cross-tile pair appear, matching the single tree's
	// self-join, which emits both ordered pairs.
	type tilePair struct{ l, r index.Index }
	var pairs []tilePair
	for _, lt := range leftTiles {
		lb, lok := lt.Bounds()
		if !lok {
			continue
		}
		for _, rt := range rightTiles {
			rb, rok := rt.Bounds()
			if !rok {
				continue
			}
			if !feasible(lb, rb) {
				continue
			}
			pairs = append(pairs, tilePair{l: lt, r: rt})
		}
	}
	if len(pairs) == 0 {
		return Stats{}, nil
	}

	inner := opts
	inner.KeepSelfPairs = true // the merge point filters self pairs
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(pairs) {
		workers = len(pairs)
	}
	if len(pairs) > 1 {
		inner.Workers = 1
	}

	if workers == 1 {
		// Serial fast path: no goroutines, channel, or serialising
		// mutex — the per-pair engines already call yield one at a time.
		var total Stats
		stopped := false
		deliver := func(p JoinPair) bool {
			if dropSelf && p.LeftOID == p.RightOID {
				return true
			}
			if !yield(p) {
				stopped = true
				return false
			}
			return true
		}
		for _, pr := range pairs {
			st, err := JoinStream(ctx, pr.l, pr.r, rels, inner, deliver)
			total.add(st)
			if err != nil {
				return total, err
			}
			if stopped {
				return total, nil
			}
		}
		return total, nil
	}

	jctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		yieldMu sync.Mutex
		stopped bool
	)
	deliver := func(p JoinPair) bool {
		yieldMu.Lock()
		defer yieldMu.Unlock()
		if stopped {
			return false
		}
		if dropSelf && p.LeftOID == p.RightOID {
			return true
		}
		if !yield(p) {
			stopped = true
			cancel()
			return false
		}
		return true
	}

	var (
		statsMu sync.Mutex
		total   Stats
		errs    = make([]error, workers)
		wg      sync.WaitGroup
	)
	pairCh := make(chan tilePair)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for pr := range pairCh {
				st, err := JoinStream(jctx, pr.l, pr.r, rels, inner, deliver)
				statsMu.Lock()
				total.add(st)
				statsMu.Unlock()
				if err != nil && errs[w] == nil {
					errs[w] = err
				}
				if err != nil {
					cancel()
					return
				}
			}
		}(w)
	}
feed:
	for _, pr := range pairs {
		select {
		case pairCh <- pr:
		case <-jctx.Done():
			break feed
		}
	}
	close(pairCh)
	wg.Wait()

	if stopped {
		return total, nil
	}
	if err := ctx.Err(); err != nil {
		return total, err
	}
	for _, err := range errs {
		if err != nil && !errors.Is(err, context.Canceled) {
			return total, err
		}
	}
	return total, nil
}
