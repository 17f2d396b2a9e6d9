package rtree

import (
	"cmp"
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

// pq is a binary min-heap of pqItems under less, with container/heap's
// up and down steps, typed so that a push boxes nothing.
type pq []pqItem

// less orders by MINDIST; on ties nodes are expanded before entries are
// emitted (so every candidate at that distance is on the heap first),
// equal-distance nodes in push order, and equal-distance entries pop
// smallest object id first, then smallest rectangle (one oid may be
// stored under several): trees of any shape answer bit for bit alike,
// and so does a sharded best-k merge where distance and oid decide.
func (q pq) less(i, j int) bool {
	a, b := &q[i], &q[j]
	if a.dist != b.dist {
		return a.dist < b.dist
	}
	if (a.node != nil) != (b.node != nil) {
		return a.node != nil
	}
	if a.node != nil {
		return a.seq < b.seq
	}
	r, s := a.entry.Rect, b.entry.Rect
	return cmp.Or(cmp.Compare(a.entry.OID, b.entry.OID), cmp.Compare(r.Min.X, s.Min.X),
		cmp.Compare(r.Min.Y, s.Min.Y), cmp.Compare(r.Max.X, s.Max.X), cmp.Compare(r.Max.Y, s.Max.Y)) < 0
}

func (q *pq) push(it pqItem) {
	*q = append(*q, it)
	h := *q
	for j := len(h) - 1; j > 0; {
		i := (j - 1) / 2
		if !h.less(j, i) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

func (q *pq) pop() pqItem {
	h := *q
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	for i := 0; ; {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j+1 < n && h.less(j+1, j) {
			j++
		}
		if !h.less(j, i) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	*q = h[:n]
	return h[n]
}

// nearestSearch is best-first kNN from root. With dedup (an R+-tree) a
// leaf pushes only the registrations no leaf expanded before it held.
func nearestSearch(ctx context.Context, src *arena, root *node, p geom.Point, k int, dedup bool) ([]Neighbour, TraversalStats, error) {
	var stats TraversalStats
	if k <= 0 {
		return nil, stats, fmt.Errorf("rtree: Nearest needs k ≥ 1, got %d", k)
	}
	// Room for a few nodes' entries and a small k up front; both grow by
	// doubling past that.
	q := make(pq, 0, 64)
	pushed := 0
	q.push(pqItem{dist: 0, node: root})
	var regs registrations
	out := make([]Neighbour, 0, min(k, 16))
	for len(q) > 0 && len(out) < k {
		it := q.pop()
		if it.node == nil {
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
				if dedup && !regs.admit(n, Record{Rect: e.Rect, OID: e.OID}) {
					continue
				}
				q.push(pqItem{dist: d, entry: Neighbour{Rect: e.Rect, OID: e.OID, Dist: d}})
			} else {
				pushed++
				q.push(pqItem{dist: d, node: e.Child, seq: pushed})
			}
		}
	}
	return out, stats, nil
}
