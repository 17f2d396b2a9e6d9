package rtree

import (
	"context"

	"mbrtopo/internal/geom"
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
//     expansion, so a slow query aborts within one page read;
//   - it accounts its own IO: every page read (including R+ overflow
//     chain pages) is counted in a per-traversal TraversalStats rather
//     than derived by diffing the page file's global counters, so the
//     numbers stay exact when many queries run concurrently;
//   - it stops as soon as emit declines a hit, which is how streaming
//     consumers bound their answers.
//
// The traversal holds no tree-level state, so any number of traversals
// may run in parallel under the trees' read locks.

// TraversalStats counts the work of one traversal. Unlike the page
// file's global counters (pagefile.Stats), which aggregate across all
// operations on the file, a TraversalStats belongs to exactly one
// traversal and is exact under any degree of concurrency.
type TraversalStats struct {
	// NodeAccesses is the number of pages read: one per visited node
	// plus one per overflow-chain page (the paper's "disk accesses per
	// search" metric).
	NodeAccesses uint64
	// NodesVisited is the number of tree nodes expanded.
	NodesVisited uint64
	// Emitted is the number of leaf entries passed to emit (before any
	// caller-side deduplication).
	Emitted int
	// SweepPairs / NestedPairs count the node pairs a join matched by
	// plane sweep and by nested loop — the adaptive matcher's decision
	// log (zero outside joins).
	SweepPairs  uint64
	NestedPairs uint64
}

// Add returns the element-wise sum s + t.
func (s TraversalStats) Add(t TraversalStats) TraversalStats {
	return TraversalStats{
		NodeAccesses: s.NodeAccesses + t.NodeAccesses,
		NodesVisited: s.NodesVisited + t.NodesVisited,
		Emitted:      s.Emitted + t.Emitted,
		SweepPairs:   s.SweepPairs + t.SweepPairs,
		NestedPairs:  s.NestedPairs + t.NestedPairs,
	}
}

// traverse runs a predicate-driven depth-first search from root,
// descending into internal entries whose rectangles satisfy nodePred
// and emitting leaf entries whose rectangles satisfy leafPred, in the
// same left-to-right preorder as the recursive implementation it
// replaces. emit receives each as a Hit, which is how a leaf's wire text
// (text.go) reaches a consumer that asks for it; emit returning false
// stops the search without error. The context is checked before each
// node expansion; on cancellation the traversal returns ctx.Err() with
// the stats accumulated so far.
//
// Nodes are fetched through the store's read path, so the same
// traversal serves pages and the arena; node-access accounting uses
// each node's recorded cost and is bit-identical across the two.
func traverse(ctx context.Context, src *store, root uint64,
	nodePred, leafPred func(geom.Rect) bool,
	emit func(Hit) bool) (TraversalStats, error) {

	var stats TraversalStats
	stack := make([]uint64, 0, 32)
	stack = append(stack, root)
	for len(stack) > 0 {
		if err := ctx.Err(); err != nil {
			return stats, err
		}
		ref := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		n, err := src.readNodeRef(ref)
		if err != nil {
			return stats, err
		}
		stats.NodesVisited++
		stats.NodeAccesses += n.accessCost()
		if n.isLeaf() {
			for i := range n.entries {
				e := &n.entries[i]
				if !leafPred(e.Rect) {
					continue
				}
				stats.Emitted++
				if !emit(Hit{Rect: e.Rect, OID: e.OID, leaf: n, at: i}) {
					return stats, nil
				}
			}
			continue
		}
		// Push matching children in reverse so the leftmost child is
		// expanded first (the recursion's visit order).
		for i := len(n.entries) - 1; i >= 0; i-- {
			if nodePred(n.entries[i].Rect) {
				stack = append(stack, n.childRef(i))
			}
		}
	}
	return stats, nil
}

// rectAndOID adapts a Search/SearchCtx emit to a SearchHits one.
func rectAndOID(emit func(geom.Rect, uint64) bool) func(Hit) bool {
	return func(h Hit) bool { return emit(h.Rect, h.OID) }
}
