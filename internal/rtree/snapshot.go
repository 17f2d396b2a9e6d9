package rtree

import (
	"context"
	"fmt"
	"io"
	"sync"

	"mbrtopo/internal/geom"
	"mbrtopo/internal/pagefile"
)

// This file implements snapshot isolation for all three trees: queries
// traverse an immutable published root while mutations build new page
// versions on the side (path shadowing — copy-on-write along the
// root-to-leaf path), so readers never block behind writers and never
// observe a half-applied mutation.
//
// Protocol:
//
//   - Every mutation runs under the writer mutex. Before a node that is
//     visible to the published snapshot is modified, it is relocated to
//     a freshly allocated page (shadowNode); the old page id is only
//     retired, never overwritten. Pages allocated during the mutation
//     are tracked in core.fresh and may be written in place freely.
//   - When the mutation succeeds, a new snapshot (root, depth, size,
//     bounds) is published atomically and the retired pages are attached
//     to the superseded snapshot. If it fails, the fresh pages are freed
//     and the working state is reset from the published snapshot, so
//     failed mutations are invisible — the tree is mutation-atomic.
//   - Readers pin the current snapshot with a reference count and
//     traverse its root without taking the writer mutex. A retired page
//     is physically freed (and hence eligible for reuse) only once
//     every snapshot that could reference it has been released, oldest
//     first.
//
// The pin/unpin critical sections are a few pointer operations, so the
// only contention readers ever feel from a writer is the instant of
// snapshot publication — never the page IO, splitting, or reinsertion
// work of the mutation itself.

// core is what Tree and RPlusTree share: the node store, the
// copy-on-write protocol over it, and every reader that only needs a
// pinned snapshot. The zero value is not usable; a constructor calls
// startEmpty or FlatTree.adopt before the tree is shared.
type core struct {
	mu       sync.Mutex // serialises mutations; readers never take it
	st       *store
	name     string
	covering bool // internal entries cover their subtrees (R-/R*-tree)

	// Working state of the (single) writer, guarded by mu. Between
	// mutations it mirrors the current snapshot.
	root  pagefile.PageID
	depth int // number of levels; 1 = root is a leaf
	size  int // number of stored objects
	// bounds is the MBR of the stored data rectangles while bounded is
	// set, kept by the R+-tree's mutations: its internal entries are
	// partition regions, so no node holds it.
	bounds  geom.Rect
	bounded bool

	// Copy-on-write bookkeeping of the in-flight mutation.
	fresh   map[pagefile.PageID]bool // pages allocated by this mutation
	retired []pagefile.PageID        // superseded pages, freed after the last reader

	// Snapshot publication state.
	pub        sync.Mutex // guards cur, oldest, and snapshot refs
	cur        *snapshot  // currently published version
	oldest     *snapshot  // head of the retirement queue
	reclaimErr error      // first deferred-free failure, surfaced on the next mutation
}

// snapshot is one immutable published version of the tree.
type snapshot struct {
	root    pagefile.PageID
	depth   int
	size    int
	bounds  geom.Rect
	bounded bool

	// The fields below are guarded by core.pub.
	refs  int               // reader pins, +1 while this is the current snapshot
	freed []pagefile.PageID // pages retired when this snapshot was superseded
	next  *snapshot
}

// startEmpty makes c an empty tree over st — one root leaf — and
// publishes it.
func (c *core) startEmpty(st *store, name string, covering bool) error {
	if st.cap < 4 {
		return fmt.Errorf("rtree: page size too small (capacity %d)", st.cap)
	}
	root, err := st.allocNode(0)
	if err != nil {
		return err
	}
	if err := st.writeNode(root); err != nil {
		return err
	}
	c.start(st, name, covering, root.id, 1, 0)
	return nil
}

// start publishes the first snapshot of the tree rooted at root on st
// (called by the constructors, before the tree is shared).
func (c *core) start(st *store, name string, covering bool, root pagefile.PageID, depth, size int) {
	c.st, c.name, c.covering = st, name, covering
	c.root, c.depth, c.size = root, depth, size
	s := c.working()
	c.cur = s
	c.oldest = s
}

// working returns the working state as a snapshot holding the
// "current" pin.
func (c *core) working() *snapshot {
	return &snapshot{root: c.root, depth: c.depth, size: c.size,
		bounds: c.bounds, bounded: c.bounded, refs: 1}
}

// acquire pins and returns the current snapshot. The caller must
// release it when the traversal is done.
func (c *core) acquire() *snapshot {
	c.pub.Lock()
	s := c.cur
	s.refs++
	c.pub.Unlock()
	return s
}

// release unpins a snapshot and frees any retired pages whose last
// possible reader is now gone.
func (c *core) release(s *snapshot) {
	c.pub.Lock()
	s.refs--
	c.reclaimLocked()
	c.pub.Unlock()
}

// reclaimLocked frees the retired pages of fully released snapshots,
// oldest first. A page retired at snapshot k may be referenced by any
// snapshot ≤ k, so reclamation stops at the first snapshot that is
// still pinned (or at the current one, which is always pinned). Caller
// holds c.pub.
func (c *core) reclaimLocked() {
	for c.oldest != c.cur && c.oldest.refs == 0 {
		for _, id := range c.oldest.freed {
			if err := c.st.Free(id); err != nil && c.reclaimErr == nil {
				// Surface the failure on the next mutation rather than
				// in whatever reader happened to trigger reclamation.
				c.reclaimErr = err
			}
		}
		c.oldest = c.oldest.next
	}
}

// mutate runs fn as one copy-on-write mutation under the writer mutex.
func (c *core) mutate(fn func() error) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.mutateLocked(fn)
}

// mutateLocked wraps one mutation in the copy-on-write protocol:
// shadow bookkeeping is reset, fn runs, and the outcome is either
// published as a new snapshot or rolled back without a trace. Caller
// holds c.mu.
func (c *core) mutateLocked(fn func() error) error {
	c.pub.Lock()
	err := c.reclaimErr
	c.reclaimErr = nil
	c.pub.Unlock()
	if err != nil {
		return err
	}
	if c.fresh == nil {
		c.fresh = make(map[pagefile.PageID]bool)
	}
	if err := fn(); err != nil {
		c.rollbackLocked()
		return err
	}
	c.publishLocked()
	return nil
}

// publishLocked installs the working state as the new current snapshot
// and hands the pages retired by this mutation to the superseded one.
// Caller holds c.mu.
func (c *core) publishLocked() {
	s := c.working()
	c.pub.Lock()
	old := c.cur
	old.refs-- // drop the "current" pin
	old.freed = c.retired
	old.next = s
	c.cur = s
	c.reclaimLocked()
	c.pub.Unlock()
	c.retired = nil
	clear(c.fresh)
}

// rollbackLocked discards a failed mutation: every page it allocated
// is freed and the working state is reset from the published snapshot,
// whose pages were never touched. Caller holds c.mu.
func (c *core) rollbackLocked() {
	for id := range c.fresh {
		_ = c.st.Free(id)
	}
	clear(c.fresh)
	c.retired = nil
	c.pub.Lock()
	s := c.cur
	c.pub.Unlock()
	c.root, c.depth, c.size = s.root, s.depth, s.size
	c.bounds, c.bounded = s.bounds, s.bounded
}

// inMutation reports whether a copy-on-write mutation is running (the
// build-time paths — New, Open — run before the tree is shared and
// write in place).
func (c *core) inMutation() bool { return c.fresh != nil }

// shadowNode relocates a node that is visible to published snapshots
// onto a fresh page, retiring the old one. Pages already allocated by
// this mutation are written in place. The caller is responsible for
// re-pointing the parent entry (and c.root for the root node) at the
// new id, and for eventually writing the node.
func (c *core) shadowNode(n *node) error {
	if !c.inMutation() || c.fresh[n.id] {
		return nil
	}
	id, err := c.st.Alloc()
	if err != nil {
		return err
	}
	c.fresh[id] = true
	c.retired = append(c.retired, n.id)
	c.retired = append(c.retired, n.chain...)
	n.id = id
	n.chain = nil
	return nil
}

// shadowPath shadows every node on a root-to-leaf path (top-down),
// fixing the child pointers of the in-memory parents as it goes.
func (c *core) shadowPath(path []*node) error {
	for i, n := range path {
		old := n.id
		if err := c.shadowNode(n); err != nil {
			return err
		}
		if n.id == old {
			continue
		}
		if i == 0 {
			c.root = n.id
			continue
		}
		p := path[i-1]
		for j := range p.entries {
			if p.entries[j].Child == old {
				p.entries[j].Child = n.id
				break
			}
		}
	}
	return nil
}

// writeMutNode shadows n and writes it, tracking the overflow pages the
// write leaves n with as fresh so that a rollback frees them too (the
// write frees those n no longer needs). The caller re-points the parent
// entry at n.id. Caller runs inside a mutation.
func (c *core) writeMutNode(n *node) error {
	if err := c.shadowNode(n); err != nil {
		return err
	}
	for _, id := range n.chain {
		delete(c.fresh, id)
	}
	err := c.st.writeNode(n)
	for _, id := range n.chain {
		c.fresh[id] = true
	}
	return err
}

// allocMutNode allocates a node, tracking it as fresh when a mutation
// is running so rollback can reclaim it.
func (c *core) allocMutNode(level int) (*node, error) {
	n, err := c.st.allocNode(level)
	if err == nil && c.inMutation() {
		c.fresh[n.id] = true
	}
	return n, err
}

// freeMutNode frees a node's pages: immediately when this mutation
// allocated them (no snapshot can see them), deferred via the retired
// list otherwise.
func (c *core) freeMutNode(n *node) error {
	if c.inMutation() && !c.fresh[n.id] {
		c.retired = append(c.retired, n.id)
		c.retired = append(c.retired, n.chain...)
		n.chain = nil
		return nil
	}
	delete(c.fresh, n.id)
	for _, id := range n.chain {
		delete(c.fresh, id)
	}
	return c.st.freeNode(n)
}

// The readers below pin the current snapshot for their whole run and
// take no other lock.

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

// Len returns the number of distinct stored objects.
func (c *core) Len() int {
	s := c.acquire()
	defer c.release(s)
	return s.size
}

// Height returns the number of levels (1 when the root is a leaf).
func (c *core) Height() int {
	s := c.acquire()
	defer c.release(s)
	return s.depth
}

// Bounds returns the MBR of the stored rectangles: the union of the
// root's entries on an R-/R*-tree; on an R+-tree the MBR its mutations
// keep in the snapshot, so no page is read.
func (c *core) Bounds() (geom.Rect, bool) {
	s := c.acquire()
	defer c.release(s)
	if !c.covering {
		return s.bounds, s.bounded
	}
	root, err := c.st.readNodeRef(uint64(s.root))
	if err != nil || len(root.entries) == 0 {
		return geom.Rect{}, false
	}
	return root.mbr(), true
}

// IOStats returns the page counters of the tree's store.
func (c *core) IOStats() pagefile.Stats { return c.st.Stats() }

// ResetIOStats zeroes those counters.
func (c *core) ResetIOStats() { c.st.ResetStats() }

// SearchHits traverses the tree, descending into any internal entry
// whose rectangle satisfies nodePred, and emits every leaf entry whose
// rectangle satisfies leafPred as a Hit. emit returning false stops the
// search. It is the one traversal entry point: context cancellation,
// checked before every node, and per-traversal IO accounting — the
// returned TraversalStats counts the pages this traversal read,
// overflow-chain pages included, exactly, regardless of how many other
// queries run concurrently, so it matches the paper's disk-access
// metric. On cancellation it returns ctx.Err() together with the stats
// accumulated so far. Because of duplicate registration, an R+-tree's
// emit may see the same (rect, oid) several times; callers deduplicate
// by oid.
func (c *core) SearchHits(ctx context.Context, nodePred, leafPred func(geom.Rect) bool, emit func(Hit) bool) (TraversalStats, error) {
	s := c.acquire()
	defer c.release(s)
	return traverse(ctx, c.st, uint64(s.root), nodePred, leafPred, emit)
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

// NearestCtx returns the k distinct objects closest to p, ordered by
// distance, with context cancellation and per-traversal IO accounting.
// Fewer than k results are returned when the tree is smaller. On an
// R+-tree duplicate registrations are skipped; distances are measured
// on the full object rectangles, and best-first traversal over
// partition regions remains exact because every rectangle is registered
// in the region containing its nearest point.
func (c *core) NearestCtx(ctx context.Context, p geom.Point, k int) ([]Neighbour, TraversalStats, error) {
	s := c.acquire()
	defer c.release(s)
	return nearestSearch(ctx, c.st, uint64(s.root), p, k, !c.covering)
}

// WriteFlat serializes the currently published version of the tree in
// the flat snapshot format, tagged with the given checkpoint
// generation. The snapshot is pinned for the duration, so writers are
// not blocked. Overflow-chained nodes are collapsed into one record
// carrying the chain's page-access cost.
func (c *core) WriteFlat(out io.Writer, gen uint64) error {
	s := c.acquire()
	defer c.release(s)
	return writeFlat(out, c.st, uint64(s.root), c.covering, c.name, gen, s.size, s.depth)
}
