package shard

import (
	"context"
	"fmt"
	"sort"

	"mbrtopo/internal/geom"
	"mbrtopo/internal/rtree"
)

// NearestCtx returns the k stored rectangles closest to p across all
// tiles by a global best-k merge: tiles are visited in MINDIST
// order from the query point, each contributing its local top-k, and a
// tile is skipped once k answers are held and its bounds lie strictly
// beyond the current kth distance (the shared pruning radius). The
// strict comparison keeps equal-distance candidates from a farther
// tile in play, so ties still resolve globally by object id and the
// result is bit-identical to a single tree's NearestCtx.
func (s *Sharded) NearestCtx(ctx context.Context, p geom.Point, k int) ([]rtree.Neighbour, rtree.TraversalStats, error) {
	var stats rtree.TraversalStats
	if k <= 0 {
		return nil, stats, fmt.Errorf("rtree: Nearest needs k ≥ 1, got %d", k)
	}
	tiles := s.Tiles()
	type cand struct {
		idx  int
		dist float64
	}
	order := make([]cand, 0, len(tiles))
	for i, t := range tiles {
		b, ok := t.Bounds()
		if !ok {
			s.pruned.Add(1)
			continue
		}
		order = append(order, cand{idx: i, dist: b.DistToPoint(p)})
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].dist != order[j].dist {
			return order[i].dist < order[j].dist
		}
		return order[i].idx < order[j].idx
	})

	var best []rtree.Neighbour
	for _, c := range order {
		if len(best) == k && c.dist > best[k-1].Dist {
			s.pruned.Add(1)
			continue
		}
		s.searched.Add(1)
		nn, st, err := tiles[c.idx].NearestCtx(ctx, p, k)
		stats = stats.Add(st)
		if err != nil {
			return nil, stats, err
		}
		best = mergeBest(best, nn, k)
	}
	return best, stats, nil
}

// mergeBest folds a tile's local top-k into the running global best,
// ordered by (distance, object id) and trimmed to k.
func mergeBest(best, nn []rtree.Neighbour, k int) []rtree.Neighbour {
	best = append(best, nn...)
	sort.Slice(best, func(i, j int) bool {
		if best[i].Dist != best[j].Dist {
			return best[i].Dist < best[j].Dist
		}
		return best[i].OID < best[j].OID
	})
	if len(best) > k {
		best = best[:k]
	}
	return best
}
