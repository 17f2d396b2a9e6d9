package rtree

import (
	"mbrtopo/internal/pagefile"
)

// This file implements snapshot isolation for the R-/R*-tree: queries
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
//     are tracked in Tree.fresh and may be written in place freely.
//   - When the mutation succeeds, a new snapshot (root, depth, size) is
//     published atomically and the retired pages are attached to the
//     superseded snapshot. If it fails, the fresh pages are freed and
//     the working state is reset from the published snapshot, so failed
//     mutations are invisible — the tree is mutation-atomic.
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

// snapshot is one immutable published version of the tree.
type snapshot struct {
	root  pagefile.PageID
	depth int // number of levels; 1 = root is a leaf
	size  int // number of stored entries

	// The fields below are guarded by Tree.pub.
	refs  int               // reader pins, +1 while this is the current snapshot
	freed []pagefile.PageID // pages retired when this snapshot was superseded
	next  *snapshot
}

// initSnapshot publishes the first snapshot from the working state
// (called by the constructors, before the tree is shared).
func (t *Tree) initSnapshot() {
	s := &snapshot{root: t.root, depth: t.depth, size: t.size, refs: 1}
	t.cur = s
	t.oldest = s
}

// acquire pins and returns the current snapshot. The caller must
// release it when the traversal is done.
func (t *Tree) acquire() *snapshot {
	t.pub.Lock()
	s := t.cur
	s.refs++
	t.pub.Unlock()
	return s
}

// release unpins a snapshot and frees any retired pages whose last
// possible reader is now gone.
func (t *Tree) release(s *snapshot) {
	t.pub.Lock()
	s.refs--
	t.reclaimLocked()
	t.pub.Unlock()
}

// reclaimLocked frees the retired pages of fully released snapshots,
// oldest first. A page retired at snapshot k may be referenced by any
// snapshot ≤ k, so reclamation stops at the first snapshot that is
// still pinned (or at the current one, which is always pinned). Caller
// holds t.pub.
func (t *Tree) reclaimLocked() {
	for t.oldest != t.cur && t.oldest.refs == 0 {
		for _, id := range t.oldest.freed {
			if err := t.st.Free(id); err != nil && t.reclaimErr == nil {
				// Surface the failure on the next mutation rather than
				// in whatever reader happened to trigger reclamation.
				t.reclaimErr = err
			}
		}
		t.oldest = t.oldest.next
	}
}

// mutateLocked wraps one mutation in the copy-on-write protocol:
// shadow bookkeeping is reset, fn runs, and the outcome is either
// published as a new snapshot or rolled back without a trace. Caller
// holds t.mu.
func (t *Tree) mutateLocked(fn func() error) error {
	t.pub.Lock()
	err := t.reclaimErr
	t.reclaimErr = nil
	t.pub.Unlock()
	if err != nil {
		return err
	}
	if t.fresh == nil {
		t.fresh = make(map[pagefile.PageID]bool)
	}
	if err := fn(); err != nil {
		t.rollbackLocked()
		return err
	}
	t.publishLocked()
	return nil
}

// publishLocked installs the working state as the new current snapshot
// and hands the pages retired by this mutation to the superseded one.
// Caller holds t.mu.
func (t *Tree) publishLocked() {
	s := &snapshot{root: t.root, depth: t.depth, size: t.size, refs: 1}
	t.pub.Lock()
	old := t.cur
	old.refs-- // drop the "current" pin
	old.freed = t.retired
	old.next = s
	t.cur = s
	t.reclaimLocked()
	t.pub.Unlock()
	t.retired = nil
	clear(t.fresh)
}

// rollbackLocked discards a failed mutation: every page it allocated
// is freed and the working state is reset from the published snapshot,
// whose pages were never touched. Caller holds t.mu.
func (t *Tree) rollbackLocked() {
	for id := range t.fresh {
		_ = t.st.Free(id)
	}
	clear(t.fresh)
	t.retired = nil
	t.pub.Lock()
	s := t.cur
	t.pub.Unlock()
	t.root, t.depth, t.size = s.root, s.depth, s.size
}

// inMutation reports whether a copy-on-write mutation is running (the
// build-time paths — New, Open — run before the tree is shared and
// write in place).
func (t *Tree) inMutation() bool { return t.fresh != nil }

// shadowNode relocates a node that is visible to published snapshots
// onto a fresh page, retiring the old one. Pages already allocated by
// this mutation are written in place. The caller is responsible for
// re-pointing the parent entry (and t.root for the root node) at the
// new id, and for eventually writing the node.
func (t *Tree) shadowNode(n *node) error {
	if !t.inMutation() || t.fresh[n.id] {
		return nil
	}
	id, err := t.st.Alloc()
	if err != nil {
		return err
	}
	t.fresh[id] = true
	t.retired = append(t.retired, n.id)
	t.retired = append(t.retired, n.chain...)
	n.id = id
	n.chain = nil
	return nil
}

// shadowPath shadows every node on a root-to-leaf path (top-down),
// fixing the child pointers of the in-memory parents as it goes.
func (t *Tree) shadowPath(path []*node) error {
	for i, n := range path {
		old := n.id
		if err := t.shadowNode(n); err != nil {
			return err
		}
		if n.id == old {
			continue
		}
		if i == 0 {
			t.root = n.id
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

// allocMutNode allocates a node, tracking it as fresh when a mutation
// is running so rollback can reclaim it.
func (t *Tree) allocMutNode(level int) (*node, error) {
	n, err := t.st.allocNode(level)
	if err == nil && t.inMutation() {
		t.fresh[n.id] = true
	}
	return n, err
}

// freeMutNode frees a node's pages: immediately when this mutation
// allocated them (no snapshot can see them), deferred via the retired
// list otherwise.
func (t *Tree) freeMutNode(n *node) error {
	if t.inMutation() && !t.fresh[n.id] {
		t.retired = append(t.retired, n.id)
		t.retired = append(t.retired, n.chain...)
		n.chain = nil
		return nil
	}
	delete(t.fresh, n.id)
	for _, id := range n.chain {
		delete(t.fresh, id)
	}
	return t.st.freeNode(n)
}
