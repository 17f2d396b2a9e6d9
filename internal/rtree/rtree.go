package rtree

import (
	"errors"
	"fmt"
	"slices"

	"mbrtopo/internal/geom"
)

// Tree is an R-tree (Guttman 1984) or, depending on Options, an
// R*-tree (Beckmann et al. 1990). Nodes live in a decoded arena
// (NewArena, Adopt); the zero value is not usable.
//
// A Tree is safe for concurrent use and its readers never block behind
// writers: searches read an immutable published snapshot of the tree,
// while mutations copy-on-write the nodes they touch and publish a new
// snapshot when they commit (see snapshot.go). Mutations are atomic —
// a failed Insert or Delete leaves the published tree untouched — and
// serialise among themselves on an internal writer mutex. Per-
// traversal IO accounting (SearchCtx) stays exact under any number of
// concurrent readers.
type Tree struct {
	core
	opts Options
}

// ErrNotFound is returned by Delete when no matching entry exists.
var ErrNotFound = errors.New("rtree: entry not found")

// NewArena creates an empty tree with explicit options that keeps its
// nodes decoded in memory (arena.go) and charges accesses at the node
// capacity of pageSize.
func NewArena(pageSize int, opts Options, name string) (*Tree, error) {
	t := &Tree{opts: opts}
	if err := t.startEmpty(pageSize, name, true); err != nil {
		return nil, err
	}
	return t, nil
}

// Insert adds a rectangle with an object id. The rectangle must be
// non-degenerate (the paper's MBR constraint). The insertion becomes
// visible to queries atomically, when it commits.
func (t *Tree) Insert(r geom.Rect, oid uint64) error {
	if !r.Valid() {
		return fmt.Errorf("rtree: inserting degenerate rect %v", r)
	}
	return t.mutate(func() error {
		// Forced-reinsert bookkeeping is per top-level insertion.
		reinserted := make(map[int]bool)
		if err := t.insertAtLevel(Entry{Rect: r, OID: oid}, 0, reinserted); err != nil {
			return err
		}
		t.size++
		return nil
	})
}

// InsertBatch adds a batch of rectangles as one atomic mutation:
// queries observe either none or all of the batch, and the snapshot is
// published once instead of per record. On an empty tree the batch is
// Sort-Tile-Recursive packed — the O(N log N) bulk build with near-full
// nodes — instead of inserted one by one; a non-empty tree takes the
// batch through the ordinary insertion path under a single publication.
func (t *Tree) InsertBatch(recs []Record) error {
	for _, r := range recs {
		if !r.Rect.Valid() {
			return fmt.Errorf("rtree: bulk loading degenerate rect %v", r.Rect)
		}
	}
	if len(recs) == 0 {
		return nil
	}
	return t.mutate(func() error {
		if t.size == 0 {
			t.packInto(recs)
			return nil
		}
		for _, r := range recs {
			reinserted := make(map[int]bool)
			if err := t.insertAtLevel(Entry{Rect: r.Rect, OID: r.OID}, 0, reinserted); err != nil {
				return err
			}
			t.size++
		}
		return nil
	})
}

// insertAtLevel places an entry at the given level (0 = leaf level),
// handling overflow by forced reinsertion (R*) or splitting.
func (t *Tree) insertAtLevel(e Entry, level int, reinserted map[int]bool) error {
	path := t.choosePath(e.Rect, level)
	n := path[len(path)-1]
	n.entries = append(n.entries, e)
	return t.handleOverflowAndAdjust(path, reinserted)
}

// choosePath descends from the root to a node at the target level,
// returning the nodes along the way (root first). Every node on the
// path will be modified, so each is owned as it is read (its parent is
// already owned and is re-pointed at it).
func (t *Tree) choosePath(r geom.Rect, level int) []*node {
	n := t.own(t.st.get(t.root))
	t.root = n
	path := []*node{n}
	for n.level != level {
		i := t.chooseSubtree(n, r)
		child := t.own(t.st.get(n.entries[i].Child))
		n.entries[i].Child = child
		n = child
		path = append(path, n)
	}
	return path
}

// chooseSubtree picks the entry to descend into.
func (t *Tree) chooseSubtree(n *node, r geom.Rect) int {
	if t.opts.RStarChooseSubtree && n.level == 1 {
		// R*: children are leaves — minimise overlap enlargement, then
		// area enlargement, then area.
		best, bestOverlapInc, bestAreaInc, bestArea := -1, 0.0, 0.0, 0.0
		for i := range n.entries {
			cur := n.entries[i].Rect
			enlarged := cur.Union(r)
			var overlapBefore, overlapAfter float64
			for j := range n.entries {
				if j == i {
					continue
				}
				overlapBefore += cur.OverlapArea(n.entries[j].Rect)
				overlapAfter += enlarged.OverlapArea(n.entries[j].Rect)
			}
			overlapInc := overlapAfter - overlapBefore
			areaInc := enlarged.Area() - cur.Area()
			area := cur.Area()
			if best == -1 || overlapInc < bestOverlapInc ||
				(overlapInc == bestOverlapInc && (areaInc < bestAreaInc ||
					(areaInc == bestAreaInc && area < bestArea))) {
				best, bestOverlapInc, bestAreaInc, bestArea = i, overlapInc, areaInc, area
			}
		}
		return best
	}
	// Guttman / R* upper levels: least area enlargement, ties by area.
	best, bestInc, bestArea := -1, 0.0, 0.0
	for i := range n.entries {
		cur := n.entries[i].Rect
		inc := cur.Enlarge(r)
		area := cur.Area()
		if best == -1 || inc < bestInc || (inc == bestInc && area < bestArea) {
			best, bestInc, bestArea = i, inc, area
		}
	}
	return best
}

// handleOverflowAndAdjust installs the modified tail node of path,
// splitting or reinserting on overflow, and adjusts ancestor
// rectangles up to the root.
func (t *Tree) handleOverflowAndAdjust(path []*node, reinserted map[int]bool) error {
	// splitOf[i] is the new sibling created at path depth i, if any.
	for i := len(path) - 1; i >= 0; i-- {
		n := path[i]
		var sibling *node
		if len(n.entries) > t.st.cap {
			if t.opts.ForcedReinsert && i > 0 && !reinserted[n.level] {
				reinserted[n.level] = true
				return t.forceReinsert(path, i, reinserted)
			}
			var err error
			sibling, err = t.splitNode(n)
			if err != nil {
				return err
			}
		}
		t.st.install(n)
		if sibling != nil {
			t.st.install(sibling)
		}
		if i == 0 {
			// Root level: grow the tree if the root split.
			if sibling != nil {
				newRoot := t.allocMutNode(n.level + 1)
				newRoot.entries = []Entry{
					{Rect: n.mbr(), Child: n},
					{Rect: sibling.mbr(), Child: sibling},
				}
				t.st.install(newRoot)
				t.root = newRoot
				t.depth++
			}
			return nil
		}
		// Update the parent's rectangle for n, and add the sibling.
		parent := path[i-1]
		slot := childSlot(parent, n)
		parent.entries[slot].Rect = n.mbr()
		if sibling != nil {
			parent.entries = append(parent.entries, Entry{Rect: sibling.mbr(), Child: sibling})
		}
	}
	return nil
}

// forceReinsert implements the R* overflow treatment: remove the p
// entries of the overflowing node whose centers are farthest from the
// node's center, tighten the node, then reinsert them at their level.
func (t *Tree) forceReinsert(path []*node, idx int, reinserted map[int]bool) error {
	n := path[idx]
	p := int(float64(len(n.entries)) * reinsertFraction)
	if p < 1 {
		p = 1
	}
	center := n.mbr().Center()
	// Partial selection sort of the p farthest entries.
	dist := func(e Entry) float64 {
		c := e.Rect.Center()
		dx, dy := c.X-center.X, c.Y-center.Y
		return dx*dx + dy*dy
	}
	entries := n.entries
	for i := 0; i < p; i++ {
		far := i
		for j := i + 1; j < len(entries); j++ {
			if dist(entries[j]) > dist(entries[far]) {
				far = j
			}
		}
		entries[i], entries[far] = entries[far], entries[i]
	}
	removed := make([]Entry, p)
	copy(removed, entries[:p])
	n.entries = append(n.entries[:0], entries[p:]...)

	// Install the tightened node and adjust ancestors.
	t.st.install(n)
	for i := idx - 1; i >= 0; i-- {
		parent, child := path[i], path[i+1]
		parent.entries[childSlot(parent, child)].Rect = child.mbr()
		t.st.install(parent)
	}
	// Reinsert far entries (close reinsert: farthest first).
	for _, e := range removed {
		if err := t.insertAtLevel(e, n.level, reinserted); err != nil {
			return err
		}
	}
	return nil
}

// Delete removes one entry matching the rectangle and object id.
// It returns ErrNotFound when no such entry is stored.
func (t *Tree) Delete(r geom.Rect, oid uint64) error {
	return t.mutate(func() error {
		leafPath, slot := t.findLeaf(t.root, nil, r, oid)
		if leafPath == nil {
			return ErrNotFound
		}
		t.ownPath(leafPath)
		leaf := leafPath[len(leafPath)-1]
		leaf.entries = append(leaf.entries[:slot], leaf.entries[slot+1:]...)
		if err := t.condenseTree(leafPath); err != nil {
			return err
		}
		t.size--
		return nil
	})
}

// findLeaf locates a leaf containing the (rect, oid) entry, returning
// the root-to-leaf path and the entry's index in the leaf.
func (t *Tree) findLeaf(n *node, path []*node, r geom.Rect, oid uint64) ([]*node, int) {
	path = append(path, t.st.get(n))
	if n.isLeaf() {
		for i, e := range n.entries {
			if e.OID == oid && e.Rect == r {
				return path, i
			}
		}
		return nil, 0
	}
	for _, e := range n.entries {
		if e.Rect.ContainsRect(r) {
			if found, slot := t.findLeaf(e.Child, path, r, oid); found != nil {
				return found, slot
			}
		}
	}
	return nil, 0
}

// condenseTree implements Guttman's CondenseTree: eliminate underfull
// nodes along the path, collect their entries for reinsertion, tighten
// ancestor rectangles, and shrink the tree when the root has a single
// child.
func (t *Tree) condenseTree(path []*node) error {
	minFill := minEntries(t.st.cap)
	type orphan struct {
		level   int
		entries []Entry
	}
	var orphans []orphan
	for i := len(path) - 1; i >= 1; i-- {
		n, parent := path[i], path[i-1]
		slot := childSlot(parent, n)
		if len(n.entries) < minFill {
			// Remove the node; its entries will be reinserted.
			parent.entries = append(parent.entries[:slot], parent.entries[slot+1:]...)
			orphans = append(orphans, orphan{level: n.level, entries: n.entries})
			t.freeMutNode(n)
		} else {
			parent.entries[slot].Rect = n.mbr()
			t.st.install(n)
		}
	}
	t.st.install(path[0])
	// Reinsert orphaned entries at their original levels.
	for _, o := range orphans {
		for _, e := range o.entries {
			reinserted := make(map[int]bool)
			if err := t.insertAtLevel(e, o.level, reinserted); err != nil {
				return err
			}
		}
	}
	// Shrink the root while it is internal with a single child.
	for {
		root := t.st.get(t.root)
		if root.isLeaf() || len(root.entries) != 1 {
			return nil
		}
		t.freeMutNode(root)
		t.root = root.entries[0].Child
		t.depth--
	}
}

// childSlot is the index of parent's entry for child, which a mutation
// path keeps pointing at the copy it changes.
func childSlot(parent, child *node) int {
	return slices.IndexFunc(parent.entries, func(e Entry) bool { return e.Child == child })
}
