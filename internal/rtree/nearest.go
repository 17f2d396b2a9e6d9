package rtree

import (
	"container/heap"
	"context"
	"fmt"

	"mbrtopo/internal/geom"
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
	node  *node     // non-nil: a node to expand
	seq   int       // a node's push order
	entry Neighbour // valid when node == nil
}

type pq []pqItem

func (q pq) Len() int { return len(q) }

// Less orders by MINDIST; on ties nodes are expanded before entries are
// emitted (so every candidate at that distance is on the heap first),
// equal-distance nodes in push order, and equal-distance entries pop
// smallest object id first. Deterministic tie breaking is what lets a
// sharded best-k merge reproduce the single-tree answer bit for bit.
func (q pq) Less(i, j int) bool {
	a, b := q[i], q[j]
	if a.dist != b.dist {
		return a.dist < b.dist
	}
	if (a.node != nil) != (b.node != nil) {
		return a.node != nil
	}
	if a.node != nil {
		return a.seq < b.seq
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

func nearestSearch(ctx context.Context, src *arena, root *node, p geom.Point, k int, dedup bool) ([]Neighbour, TraversalStats, error) {
	var stats TraversalStats
	if k <= 0 {
		return nil, stats, fmt.Errorf("rtree: Nearest needs k ≥ 1, got %d", k)
	}
	var q pq
	pushed := 0
	heap.Push(&q, pqItem{dist: 0, node: root})
	seen := map[uint64]bool{}
	var out []Neighbour
	for q.Len() > 0 && len(out) < k {
		it := heap.Pop(&q).(pqItem)
		if it.node == nil {
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
		n := src.get(it.node)
		stats.NodesVisited++
		stats.NodeAccesses += uint64(n.cost)
		for i := range n.entries {
			e := &n.entries[i]
			d := e.Rect.DistToPoint(p)
			if n.isLeaf() {
				heap.Push(&q, pqItem{dist: d, entry: Neighbour{Rect: e.Rect, OID: e.OID, Dist: d}})
			} else {
				pushed++
				heap.Push(&q, pqItem{dist: d, node: e.Child, seq: pushed})
			}
		}
	}
	return out, stats, nil
}
