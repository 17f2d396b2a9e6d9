package rtree

import (
	"container/heap"
	"context"
	"fmt"

	"mbrtopo/internal/geom"
	"mbrtopo/internal/pagefile"
)

// This file implements k-nearest-neighbour search by best-first
// branch-and-bound on MINDIST (Roussopoulos, Kelley, Vincent 1995 —
// the distance-retrieval line of work the paper contrasts with its
// topological retrieval).

// Neighbour is one kNN answer.
type Neighbour struct {
	Rect geom.Rect
	OID  uint64
	// Dist is the Euclidean distance from the query point to the
	// rectangle (zero if the point lies inside it).
	Dist float64
}

// pqItem is a heap element: either a node to expand or a leaf entry.
type pqItem struct {
	dist  float64
	node  pagefile.PageID // non-zero: a node to expand
	entry Neighbour       // valid when node == 0
}

type pq []pqItem

func (q pq) Len() int { return len(q) }

// Less orders by MINDIST; on ties nodes are expanded before entries are
// emitted (so every candidate at that distance is on the heap first) and
// equal-distance entries pop smallest object id first. Deterministic tie
// breaking is what lets a sharded best-k merge reproduce the single-tree
// answer bit for bit.
func (q pq) Less(i, j int) bool {
	a, b := q[i], q[j]
	if a.dist != b.dist {
		return a.dist < b.dist
	}
	if (a.node != 0) != (b.node != 0) {
		return a.node != 0
	}
	if a.node != 0 {
		return a.node < b.node
	}
	return a.entry.OID < b.entry.OID
}
func (q pq) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *pq) Push(x interface{}) { *q = append(*q, x.(pqItem)) }
func (q *pq) Pop() interface{} {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}

func nearestSearch(ctx context.Context, src *arena, root pagefile.PageID, p geom.Point, k int, dedup bool) ([]Neighbour, TraversalStats, error) {
	var stats TraversalStats
	if k <= 0 {
		return nil, stats, fmt.Errorf("rtree: Nearest needs k ≥ 1, got %d", k)
	}
	var q pq
	heap.Push(&q, pqItem{dist: 0, node: root})
	seen := map[uint64]bool{}
	var out []Neighbour
	for q.Len() > 0 && len(out) < k {
		it := heap.Pop(&q).(pqItem)
		if it.node == 0 {
			if dedup {
				if seen[it.entry.OID] {
					continue
				}
				seen[it.entry.OID] = true
			}
			out = append(out, it.entry)
			stats.Emitted++
			continue
		}
		if err := ctx.Err(); err != nil {
			return out, stats, err
		}
		n, err := src.get(it.node)
		if err != nil {
			return nil, stats, err
		}
		stats.NodesVisited++
		stats.NodeAccesses += uint64(n.cost)
		for i := range n.entries {
			e := &n.entries[i]
			d := e.Rect.DistToPoint(p)
			if n.isLeaf() {
				heap.Push(&q, pqItem{dist: d, entry: Neighbour{Rect: e.Rect, OID: e.OID, Dist: d}})
			} else {
				heap.Push(&q, pqItem{dist: d, node: e.Child})
			}
		}
	}
	return out, stats, nil
}
