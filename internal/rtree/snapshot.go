package rtree

import (
	"context"
	"sync"
	"sync/atomic"

	"mbrtopo/internal/geom"
	"mbrtopo/internal/mbr"
	"mbrtopo/internal/pagefile"
)

// This file implements snapshot isolation for all three trees: queries
// traverse an immutable published root while mutations build new node
// versions on the side (path copying — copy-on-write along the
// root-to-leaf path), so readers never block behind writers and never
// observe a half-applied mutation.
//
// Protocol:
//
//   - Every mutation runs under the writer mutex. Before it changes a
//     node a published snapshot can reach, it copies the node (own) and
//     re-points the parent, or the working root, at the copy. The nodes
//     it created carry its stamp, which no other mutation of the tree
//     shares, and change in place; core.fresh lists them for a
//     rollback. Both cost what the mutation created, never what the
//     tree holds.
//   - When the mutation succeeds, a new snapshot (root, depth, size,
//     bounds) is published with one atomic store. If it fails, the
//     working state is reset from the published snapshot, whose nodes it
//     never touched, so failed mutations are invisible — the tree is
//     mutation-atomic.
//   - Readers load the published snapshot and traverse its root without
//     taking any lock. A superseded version lives exactly as long as
//     some reader holds its root: the garbage collector reclaims it.

// core is what Tree and RPlusTree share: the node store, the
// copy-on-write protocol over it, and every reader that only needs a
// published snapshot. The zero value is not usable; a constructor calls
// startEmpty or FlatTree.adopt before the tree is shared.
type core struct {
	mu       sync.Mutex // serialises mutations; readers never take it
	st       *arena     // the page counters
	name     string
	covering bool // internal entries cover their subtrees (R-/R*-tree)

	// Working state of the (single) writer, guarded by mu. Between
	// mutations it is the published snapshot.
	snapshot

	// Copy-on-write bookkeeping of the in-flight mutation.
	stamp    uint64  // carried by the nodes it created (node.stamp)
	fresh    []*node // the nodes it created, a dropped one among them
	replaced uint64  // pages of the published nodes it replaced

	cur atomic.Pointer[snapshot] // the published version
}

// snapshot is one version of the tree: the writer's working state, and
// once published immutable.
type snapshot struct {
	root  *node
	depth int // number of levels; 1 = root is a leaf
	size  int // number of stored (rect, oid) registrations
	// The MBR of the stored rectangles (while bounded) and the count of
	// leaf entries, kept by the R+-tree's mutations only: no node holds
	// the MBR, and a leaf holds a copy of each rectangle crossing it.
	bounds      geom.Rect
	bounded     bool
	leafEntries int
}

// startEmpty makes c an empty tree — one root leaf — charging costs at
// pageSize, and publishes it.
func (c *core) startEmpty(pageSize int, name string, covering bool) error {
	st, err := newArena(pageSize)
	if err != nil {
		return err
	}
	root := st.alloc(0)
	st.install(root)
	c.start(st, name, covering, root, 1, 0)
	return nil
}

// start publishes the first snapshot of the tree rooted at root
// (called by the constructors, before the tree is shared).
func (c *core) start(st *arena, name string, covering bool, root *node, depth, size int) {
	c.st, c.name, c.covering = st, name, covering
	c.root, c.depth, c.size = root, depth, size
	c.publishLocked()
}

// mutate runs fn as one copy-on-write mutation under the writer mutex:
// its outcome is either published as a new snapshot or rolled back
// without a trace.
func (c *core) mutate(fn func() error) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := fn(); err != nil {
		c.rollbackLocked()
		return err
	}
	c.publishLocked()
	return nil
}

// nextMutation starts the bookkeeping of the next mutation: a new stamp,
// so no node created so far is fresh any more, and an empty list.
// Stamps count up from 1; a node the tree did not create — a decoded
// image's, which two trees may share — carries 0, which no mutation
// takes. Caller holds c.mu (or owns c, before it is shared).
func (c *core) nextMutation() {
	clear(c.fresh)
	c.fresh = c.fresh[:0]
	c.stamp++
}

// publishLocked makes the working state the published snapshot: the
// nodes the mutation created are immutable from now on, and the pages
// of those it replaced are freed. Caller holds c.mu.
func (c *core) publishLocked() {
	s := c.snapshot
	c.cur.Store(&s)
	c.st.frees.Add(c.replaced)
	c.replaced = 0
	c.nextMutation()
}

// rollbackLocked discards a failed mutation: the pages of every node
// it created and still holds are freed and the working state is reset
// from the published snapshot. Caller holds c.mu.
func (c *core) rollbackLocked() {
	for _, n := range c.fresh {
		if n.stamp == c.stamp {
			c.st.free(n)
		}
	}
	c.replaced = 0
	c.snapshot = *c.cur.Load()
	c.nextMutation()
}

// track makes n, which the running mutation just created, fresh.
func (c *core) track(n *node) *node {
	n.stamp = c.stamp
	c.fresh = append(c.fresh, n)
	return n
}

// own returns a node the running mutation may change: n itself when
// the mutation created it, otherwise a copy (checkOut) that replaces n.
// The caller re-points n's parent entry (or c.root) at the result.
func (c *core) own(n *node) *node {
	if n.stamp == c.stamp {
		return n
	}
	c.replaced += uint64(n.cost)
	return c.track(c.st.checkOut(n))
}

// ownPath owns every node on a root-to-leaf path (top-down), re-pointing
// each parent at its child's copy as it goes.
func (c *core) ownPath(path []*node) {
	for i, n := range path {
		m := c.own(n)
		path[i] = m
		switch {
		case m == n:
		case i == 0:
			c.root = m
		default:
			p := path[i-1]
			for j := range p.entries {
				if p.entries[j].Child == n {
					p.entries[j].Child = m
					break
				}
			}
		}
	}
}

// allocMutNode returns a new node of the running mutation.
func (c *core) allocMutNode(level int) *node { return c.track(c.st.alloc(level)) }

// freeMutNode drops a node from the tree: its pages are freed at once
// when this mutation created it (which takes its stamp, so a rollback
// does not free them again), when the mutation publishes otherwise.
func (c *core) freeMutNode(n *node) {
	if n.stamp != c.stamp {
		c.replaced += uint64(n.cost)
		return
	}
	n.stamp = 0
	c.st.free(n)
}

// The readers below load the published snapshot once and take no lock.

// Name identifies the variant ("R-tree", "R*-tree", "R+-tree").
func (c *core) Name() string { return c.name }

// CoveringNodeRects reports whether internal entry rectangles are tight
// covers of their subtrees: true for R- and R*-trees. An R+-tree's
// internal entries are partition regions, which do not cover the data
// rectangles registered beneath them (an object may stick out of a
// region it is registered in), so query processors must use
// region-intersection predicates rather than the covering propagation
// sets there.
func (c *core) CoveringNodeRects() bool { return c.covering }

// Len returns the number of stored objects: (rect, oid) pairs, each as
// many times as it was inserted and not deleted.
func (c *core) Len() int { return c.cur.Load().size }

// Height returns the number of levels (1 when the root is a leaf).
func (c *core) Height() int { return c.cur.Load().depth }

// Bounds returns the MBR of the stored rectangles: the union of the
// root's entries on an R-/R*-tree; on an R+-tree the MBR its mutations
// keep in the snapshot, so no node is read.
func (c *core) Bounds() (geom.Rect, bool) {
	s := c.cur.Load()
	if !c.covering {
		return s.bounds, s.bounded
	}
	root := c.st.get(s.root)
	if len(root.entries) == 0 {
		return geom.Rect{}, false
	}
	return root.mbr(), true
}

// IOStats returns the page counters of the tree's arena.
func (c *core) IOStats() pagefile.Stats { return c.st.stats() }

// ResetIOStats zeroes those counters.
func (c *core) ResetIOStats() { c.st.resetStats() }

// SearchHits traverses the tree, descending into any internal entry
// whose rectangle satisfies nodePred, and emits every leaf entry whose
// rectangle satisfies leafPred as a Hit. emit returning false stops the
// search. It is the one traversal entry point: context cancellation,
// checked before every node, and per-traversal IO accounting — the
// returned TraversalStats counts the pages this traversal read,
// overflow pages included, exactly, regardless of how many other
// queries run concurrently, so it matches the paper's disk-access
// metric. On cancellation it returns ctx.Err() together with the stats
// accumulated so far. emit sees every leaf entry that passes: on an
// R+-tree, one registration once in each leaf its rectangle reaches. It
// is SearchPreds one hit at a time (PerHit).
func (c *core) SearchHits(ctx context.Context, nodePred, leafPred func(geom.Rect) bool, emit func(Hit) bool) (TraversalStats, error) {
	return PerHit(emit, func(leaves func(Leaf) bool) (TraversalStats, error) {
		return c.SearchPreds(ctx, mbr.Func(nodePred), mbr.Func(leafPred), leaves)
	})
}

// SearchPreds is the one traversal: the tests are values (mbr.Filter,
// mbr.Func, Pred.And), each entry meets a test's window inline and
// calls only a probe behind it, and emit is handed each leaf's passing
// entries in one call (Leaf). It is the filter descent's entry point
// (index.Index carries it); every other caller passes funcs to
// SearchHits, which wraps them. A caller that wants each registration
// of an R+-tree once wraps emit in Registrations.
func (c *core) SearchPreds(ctx context.Context, node, leaf mbr.Pred, emit func(Leaf) bool) (TraversalStats, error) {
	return traverse(ctx, c.st, c.cur.Load().root, node, leaf, emit)
}

// SearchCtx is SearchHits for an emit that wants the rectangle and the
// object id only.
func (c *core) SearchCtx(ctx context.Context, nodePred, leafPred func(geom.Rect) bool, emit func(geom.Rect, uint64) bool) (TraversalStats, error) {
	return c.SearchHits(ctx, nodePred, leafPred, rectAndOID(emit))
}

// Search is SearchCtx without cancellation or stats.
func (c *core) Search(nodePred, leafPred func(geom.Rect) bool, emit func(geom.Rect, uint64) bool) error {
	_, err := c.SearchCtx(context.Background(), nodePred, leafPred, emit)
	return err
}

// NearestCtx returns the k registrations — (rect, oid) pairs, each as
// many times as it was inserted — closest to p, ordered by distance,
// with context cancellation and per-traversal IO accounting. Fewer than
// k results are returned when the tree is smaller. On an R+-tree a
// registration's copies count once (registrations, traverse.go);
// distances are measured on the full object rectangles, and best-first
// traversal over partition regions remains exact because every
// rectangle is registered in the region containing its nearest point.
func (c *core) NearestCtx(ctx context.Context, p geom.Point, k int) ([]Neighbour, TraversalStats, error) {
	return nearestSearch(ctx, c.st, c.cur.Load().root, p, k, !c.covering)
}
