package rtree

import (
	"context"

	"mbrtopo/internal/geom"
	"mbrtopo/internal/mbr"
)

// This file is the shared traversal core of the read path. Both tree
// families (covering-rectangle R-/R*-trees and partition-region
// R+-trees) expose the same predicate-driven search; the only
// difference between them is the meaning of the internal entry
// rectangles, which the node predicate already encapsulates. The
// traversal is therefore implemented once, iteratively, with an
// explicit stack:
//
//   - it is context-aware: cancellation is checked before every node
//     expansion, so a slow query aborts within one node access;
//   - it accounts its own IO: every page read (including R+ overflow
//     pages) is counted in a per-traversal TraversalStats rather than
//     derived by diffing the arena's global counters, so the numbers
//     stay exact when many queries run concurrently;
//   - it stops as soon as emit declines a hit, which is how streaming
//     consumers bound their answers.
//
// The traversal holds no tree-level state, so any number of traversals
// may run in parallel, each over the snapshot it loaded.

// TraversalStats counts the work of one traversal. Unlike a tree's
// global page counters (IOStats), which aggregate across all operations
// on the tree, a TraversalStats belongs to exactly one traversal and is
// exact under any degree of concurrency.
type TraversalStats struct {
	// NodeAccesses is the number of pages read: one per visited node
	// plus one per overflow page (the paper's "disk accesses per search"
	// metric).
	NodeAccesses uint64
	// NodesVisited is the number of tree nodes expanded.
	NodesVisited uint64
	// Emitted is the number of leaf entries passed to emit (an R+-tree's
	// copies of one registration included; see Registrations).
	Emitted int
	// SweepPairs / NestedPairs count the node pairs a join matched by
	// plane sweep and by nested loop — the adaptive matcher's decision
	// log (zero outside joins).
	SweepPairs  uint64
	NestedPairs uint64
	// PairTests counts the leaf entry pairs a join tested with its
	// accept test (zero outside joins).
	PairTests uint64
}

// Add returns the element-wise sum s + t.
func (s TraversalStats) Add(t TraversalStats) TraversalStats {
	return TraversalStats{
		NodeAccesses: s.NodeAccesses + t.NodeAccesses,
		NodesVisited: s.NodesVisited + t.NodesVisited,
		Emitted:      s.Emitted + t.Emitted,
		SweepPairs:   s.SweepPairs + t.SweepPairs,
		NestedPairs:  s.NestedPairs + t.NestedPairs,
		PairTests:    s.PairTests + t.PairTests,
	}
}

// traverse runs a predicate-driven depth-first search from root,
// descending into internal entries whose rectangles pass nodeTest and
// handing emit, once per leaf, the leaf's entries whose rectangles pass
// leafTest, in the same left-to-right preorder as the recursive
// implementation it replaces. Both tests are values: each entry is
// tested against the window inline, and a func is called only where the
// test has a probe behind its window (a set the window does not decide
// alone, or a func wrapped by mbr.Func). A leaf with no passing entry
// is not handed over; emit returning false stops the search without
// error, after the leaf it declined. The context is checked before each
// node expansion; on cancellation the traversal returns ctx.Err() with
// the stats accumulated so far. Node-access accounting sums each node's
// page cost.
func traverse(ctx context.Context, src *arena, root *node,
	nodeTest, leafTest mbr.Pred, emit func(Leaf) bool) (TraversalStats, error) {

	var stats TraversalStats
	stack := make([]*node, 0, 32)
	stack = append(stack, root)
	at := make([]int32, 0, 64) // the batch of the leaf in hand
	for len(stack) > 0 {
		if err := ctx.Err(); err != nil {
			return stats, err
		}
		n := src.get(stack[len(stack)-1])
		stack = stack[:len(stack)-1]
		stats.NodesVisited++
		stats.NodeAccesses += uint64(n.cost)
		if n.isLeaf() {
			at = at[:0]
			for i := range n.entries {
				e := &n.entries[i]
				if leafTest.Window.Fits(e.Rect) && leafTest.Probed(e.Rect) {
					at = append(at, int32(i))
				}
			}
			if len(at) == 0 {
				continue
			}
			stats.Emitted += len(at)
			if !emit(Leaf{n: n, at: at}) {
				return stats, nil
			}
			continue
		}
		// Push matching children in reverse so the leftmost child is
		// expanded first (the recursion's visit order).
		for i := len(n.entries) - 1; i >= 0; i-- {
			e := &n.entries[i]
			if nodeTest.Window.Fits(e.Rect) && nodeTest.Probed(e.Rect) {
				stack = append(stack, e.Child)
			}
		}
	}
	return stats, nil
}

// Leaf is what a traversal hands its emit once per leaf: the leaf
// version and the indexes of its entries that passed the leaf test, in
// entry order. The indexes are the traversal's scratch: an emit may
// read them, and narrow them (Prefix, Registrations), until it returns,
// and keeps none of them.
type Leaf struct {
	n  *node
	at []int32
}

// Len is the number of entries in the batch.
func (l Leaf) Len() int { return len(l.at) }

// Hit is batch entry i.
func (l Leaf) Hit(i int) Hit {
	j := int(l.at[i])
	e := &l.n.entries[j]
	return Hit{Rect: e.Rect, OID: e.OID, leaf: l.n, at: j}
}

// Prefix is the batch's first k entries.
func (l Leaf) Prefix(k int) Leaf { return Leaf{n: l.n, at: l.at[:k]} }

// PerHit runs search, a per-leaf traversal, for an emit that takes one
// hit at a time: it stops at the first hit emit declines, and the
// stats' Emitted counts the hits emit was handed, that one included.
func PerHit(emit func(Hit) bool, search func(func(Leaf) bool) (TraversalStats, error)) (TraversalStats, error) {
	handed := 0
	ts, err := search(func(l Leaf) bool {
		for i := range l.at {
			handed++
			if !emit(l.Hit(i)) {
				return false
			}
		}
		return true
	})
	ts.Emitted = handed
	return ts, err
}

// registrations is the R+-tree's one rule for what its leaf entries
// stand for. The tree registers a (rect, oid) pair in every leaf its
// rectangle's interior reaches, as many times in each as it was
// inserted, so a leaf's copies of a pair count only beyond the copies
// a leaf met before held. Fed each leaf's entries together, in any
// order of leaves, it admits every registration once.
type registrations struct {
	leaf   *node          // the leaf being counted
	held   map[Record]int // the most copies of a pair one leaf met so far held
	inLeaf map[Record]int // the copies of a pair met in leaf
}

// admit reports whether rec, an entry of leaf, is a registration that
// no leaf met before held.
func (r *registrations) admit(leaf *node, rec Record) bool {
	if r.held == nil {
		r.held, r.inLeaf = map[Record]int{}, map[Record]int{}
	} else if leaf != r.leaf {
		clear(r.inLeaf)
	}
	r.leaf = leaf
	r.inLeaf[rec]++
	if k := r.inLeaf[rec]; k > r.held[rec] {
		r.held[rec] = k
		return true
	}
	return false
}

// Registrations wraps the emit of an R+-tree's SearchPreds so that it
// sees each (rect, oid) registration once per insertion, not once per
// leaf it reaches: it narrows each batch, in place and in entry order,
// to the entries that are registrations no leaf before held, and hands
// on only a batch that keeps one. On a covering tree a leaf entry is a
// registration.
func Registrations(emit func(Leaf) bool) func(Leaf) bool {
	var r registrations
	return func(l Leaf) bool {
		kept := l.at[:0]
		for _, j := range l.at {
			if e := &l.n.entries[j]; r.admit(l.n, Record{Rect: e.Rect, OID: e.OID}) {
				kept = append(kept, j)
			}
		}
		return len(kept) == 0 || emit(Leaf{n: l.n, at: kept})
	}
}

// rectAndOID adapts a Search/SearchCtx emit to a SearchHits one.
func rectAndOID(emit func(geom.Rect, uint64) bool) func(Hit) bool {
	return func(h Hit) bool { return emit(h.Rect, h.OID) }
}
