package shard

import (
	"context"
	"errors"
	"sync"

	"mbrtopo/internal/geom"
	"mbrtopo/internal/index"
	"mbrtopo/internal/rtree"
)

// Search is SearchCtx without cancellation or stats.
func (s *Sharded) Search(nodePred, leafPred func(geom.Rect) bool, emit func(geom.Rect, uint64) bool) error {
	_, err := s.SearchCtx(context.Background(), nodePred, leafPred, emit)
	return err
}

// SearchCtx is SearchHits for an emit that wants the rectangle and the
// object id only.
func (s *Sharded) SearchCtx(ctx context.Context, nodePred, leafPred func(geom.Rect) bool, emit func(geom.Rect, uint64) bool) (rtree.TraversalStats, error) {
	return s.SearchHits(ctx, nodePred, leafPred, func(h rtree.Hit) bool { return emit(h.Rect, h.OID) })
}

// SearchHits fans the traversal out to every tile whose bounds satisfy
// the node predicate and merges the emissions. A tile's bounds cover
// all its members, so applying the caller's node predicate to them is
// exactly the root-rectangle test a single tree would run first: for
// covering kinds the predicate is the Table 2 propagation test, for
// partition kinds the region-feasibility test — both conservative on a
// covering rectangle, so pruning never loses an answer.
//
// Emissions from concurrent tile traversals are serialized, so the
// emit callback needs no locking of its own; merged stats are the
// element-wise sum of the per-tile traversals.
func (s *Sharded) SearchHits(ctx context.Context, nodePred, leafPred func(geom.Rect) bool, emit func(rtree.Hit) bool) (rtree.TraversalStats, error) {
	_, merged, err := s.SearchTiles(ctx, nodePred, leafPred, emit)
	return merged, err
}

// SearchTiles is SearchHits returning the per-tile traversal stats next
// to their sum (index i belongs to tile i; pruned tiles stay zero).
func (s *Sharded) SearchTiles(ctx context.Context, nodePred, leafPred func(geom.Rect) bool, emit func(rtree.Hit) bool) ([]rtree.TraversalStats, rtree.TraversalStats, error) {
	tiles := s.Tiles()
	perTile := make([]rtree.TraversalStats, len(tiles))
	errs := make([]error, len(tiles))

	searchCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		mu      sync.Mutex
		stopped bool
	)
	guard := func(h rtree.Hit) bool {
		mu.Lock()
		defer mu.Unlock()
		if stopped {
			return false
		}
		if !emit(h) {
			stopped = true
			cancel()
			return false
		}
		return true
	}

	var wg sync.WaitGroup
	for i, t := range tiles {
		b, ok := t.Bounds()
		if !ok || (nodePred != nil && !nodePred(b)) {
			s.pruned.Add(1)
			continue
		}
		s.searched.Add(1)
		wg.Add(1)
		go func(i int, t index.Index) {
			defer wg.Done()
			perTile[i], errs[i] = t.SearchHits(searchCtx, nodePred, leafPred, guard)
		}(i, t)
	}
	wg.Wait()

	var merged rtree.TraversalStats
	for _, st := range perTile {
		merged = merged.Add(st)
	}
	if stopped {
		// The caller ended the search; sibling traversals cancelled by
		// us are not errors (a single tree returns nil on emit-stop).
		return perTile, merged, nil
	}
	if err := ctx.Err(); err != nil {
		return perTile, merged, err
	}
	for _, err := range errs {
		if err != nil && !errors.Is(err, context.Canceled) {
			return perTile, merged, err
		}
	}
	return perTile, merged, nil
}
