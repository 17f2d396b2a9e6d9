package rtree

import (
	"cmp"
	"context"
	"fmt"
	"math"

	"mbrtopo/internal/geom"
)

// This file implements k-nearest-neighbour search by best-first
// branch-and-bound on MINDIST (Roussopoulos, Kelley, Vincent 1995 —
// the distance-retrieval line of work the paper contrasts with its
// topological retrieval), bounded by the k best found so far:
//
//   - a min-heap holds the nodes still to expand, ordered by MINDIST
//     and then by push order; no leaf entry ever goes on it;
//   - beside it a max-heap holds at most k neighbours under the answer's
//     total order (distance, oid, rectangle), worst on top, and a leaf
//     entry enters only by beating that worst one;
//   - once k are held, d_k is the worst one's distance: a child whose
//     MINDIST exceeds it is never pushed, an entry whose larger axis
//     gap exceeds it is dropped before its distance is computed, and the
//     search stops when the next node's MINDIST exceeds it.
//
// The nodes expanded are exactly those with MINDIST ≤ the final d_k,
// in (MINDIST, push order), as in a best-first search without the
// bound that pops nodes before entries on a tie: a node's MINDIST is at
// least its parent's, so every entry nearer than a node is offered
// before that node pops, and the held d_k, which only falls, is the
// final one when the first node beyond it comes up. So the answer, its
// order and TraversalStats do not depend on the bound, and an R+-tree's
// registrations see the same leaves in the same order (DESIGN §6,
// "Bounded kNN").

// Neighbour is one kNN answer.
type Neighbour struct {
	Rect geom.Rect
	OID  uint64
	// Dist is the Euclidean distance from the query point to the
	// rectangle (zero if the point lies inside it).
	Dist float64
}

// before is the answer's total order: distance, then object id, then
// the rectangle (one oid may be stored under several), so trees of any
// shape answer bit for bit alike, and so does a sharded best-k merge
// where distance and oid decide.
func (a *Neighbour) before(b *Neighbour) bool {
	if a.Dist != b.Dist {
		return a.Dist < b.Dist
	}
	if a.OID != b.OID {
		return a.OID < b.OID
	}
	r, s := &a.Rect, &b.Rect
	return cmp.Or(cmp.Compare(r.Min.X, s.Min.X), cmp.Compare(r.Min.Y, s.Min.Y),
		cmp.Compare(r.Max.X, s.Max.X), cmp.Compare(r.Max.Y, s.Max.Y)) < 0
}

// nodeItem is a node waiting to be expanded, at MINDIST dist from the
// query point; seq is its push order.
type nodeItem struct {
	dist float64
	node *node
	seq  int
}

// nodeHeap is a binary min-heap of nodeItems by (dist, seq), with
// container/heap's up and down steps, typed so that a push boxes
// nothing.
type nodeHeap []nodeItem

func (q nodeHeap) less(i, j int) bool {
	if q[i].dist != q[j].dist {
		return q[i].dist < q[j].dist
	}
	return q[i].seq < q[j].seq
}

func (q *nodeHeap) push(it nodeItem) {
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

func (q *nodeHeap) pop() nodeItem {
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

// kBest is a binary max-heap of neighbours under before: the worst one
// held is at index 0.
type kBest []Neighbour

// add appends nb, which the caller has room for, and sifts it up.
func (b *kBest) add(nb Neighbour) {
	*b = append(*b, nb)
	h := *b
	for j := len(h) - 1; j > 0; {
		i := (j - 1) / 2
		if !h[i].before(&h[j]) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

// down sifts h[0] down within h[:n].
func (b kBest) down(n int) {
	for i := 0; ; {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j+1 < n && b[j].before(&b[j+1]) {
			j++
		}
		if !b[i].before(&b[j]) {
			break
		}
		b[i], b[j] = b[j], b[i]
		i = j
	}
}

// sort puts the held neighbours in answer order, in place.
func (b kBest) sort() {
	for n := len(b) - 1; n > 0; n-- {
		b[0], b[n] = b[n], b[0]
		b.down(n)
	}
}

// nearestSearch is best-first kNN from root, bounded by the k best held.
// With dedup (an R+-tree) a leaf offers only the registrations no leaf
// expanded before it held; every entry of an expanded leaf passes
// through the dedup before any cut-off is tried.
func nearestSearch(ctx context.Context, src *arena, root *node, p geom.Point, k int, dedup bool) ([]Neighbour, TraversalStats, error) {
	var stats TraversalStats
	if k <= 0 {
		return nil, stats, fmt.Errorf("rtree: Nearest needs k ≥ 1, got %d", k)
	}
	// Room for a few levels' pushes up front; the cut-off keeps the
	// heap small once k neighbours are held.
	q := make(nodeHeap, 0, 64)
	pushed := 0
	q.push(nodeItem{node: root})
	var regs registrations
	best := make(kBest, 0, min(k, 16))
	// dk is the k-th distance while k are held, +Inf before.
	dk := math.Inf(1)
	var err error
	for len(q) > 0 {
		it := q.pop()
		if it.dist > dk {
			break
		}
		if err = ctx.Err(); err != nil {
			break
		}
		n := src.get(it.node)
		stats.NodesVisited++
		stats.NodeAccesses += uint64(n.cost)
		leaf := n.isLeaf()
		for i := range n.entries {
			e := &n.entries[i]
			if leaf && dedup && !regs.admit(n, Record{Rect: e.Rect, OID: e.OID}) {
				continue
			}
			dx, dy := e.Rect.Gaps(p)
			if max(dx, dy) > dk {
				continue
			}
			d := math.Hypot(dx, dy)
			if d > dk {
				continue
			}
			if !leaf {
				pushed++
				q.push(nodeItem{dist: d, node: e.Child, seq: pushed})
				continue
			}
			nb := Neighbour{Rect: e.Rect, OID: e.OID, Dist: d}
			if len(best) < k {
				best.add(nb)
			} else if nb.before(&best[0]) {
				best[0] = nb
				best.down(k)
			} else {
				continue
			}
			if len(best) == k {
				dk = best[0].Dist
			}
		}
	}
	best.sort()
	stats.Emitted = len(best)
	return best, stats, err
}
