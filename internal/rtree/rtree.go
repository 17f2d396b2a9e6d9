package rtree

import (
	"errors"
	"fmt"

	"mbrtopo/internal/geom"
	"mbrtopo/internal/pagefile"
)

// Tree is an R-tree (Guttman 1984) or, depending on Options, an
// R*-tree (Beckmann et al. 1990). Nodes live on a pagefile (New, Open)
// or in a decoded arena (NewArena, Adopt); the zero value is not usable.
//
// A Tree is safe for concurrent use and its readers never block behind
// writers: searches pin an immutable published snapshot of the tree,
// while mutations copy-on-write the pages they touch and publish a new
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

// New creates a tree with explicit options over the given page file.
func New(file pagefile.File, opts Options, name string) (*Tree, error) {
	return newTree(newStore(file), opts, name)
}

// NewArena creates a tree that keeps its nodes decoded in memory
// (arena.go) and charges accesses at the node capacity of pageSize:
// answers, TraversalStats and IOStats equal New's over such a file.
func NewArena(pageSize int, opts Options, name string) (*Tree, error) {
	return newTree(newArenaStore(pageSize, make([]*node, arenaMinSlots), 1), opts, name)
}

func newTree(st *store, opts Options, name string) (*Tree, error) {
	t := &Tree{opts: opts}
	if err := t.startEmpty(st, name, true); err != nil {
		return nil, err
	}
	return t, nil
}

// NewRTree creates an R-tree with the paper's settings: quadratic
// split and minimum node capacity m = 40%.
func NewRTree(file pagefile.File) (*Tree, error) {
	return New(file, Options{Split: SplitQuadratic}, "R-tree")
}

// NewRStar creates an R*-tree with the paper's settings (m = 40%):
// R* subtree choice, margin-driven split, forced reinsertion.
func NewRStar(file pagefile.File) (*Tree, error) {
	return New(file, Options{
		Split:              SplitRStar,
		RStarChooseSubtree: true,
		ForcedReinsert:     true,
	}, "R*-tree")
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
// published (with its page retirement bookkeeping) once instead of per
// record. On an empty tree the batch is Sort-Tile-Recursive packed —
// the O(N log N) bulk build with near-full nodes — instead of inserted
// one by one; a non-empty tree takes the batch through the ordinary
// insertion path under a single publication.
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
			return t.packInto(recs)
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
	path, err := t.choosePath(e.Rect, level)
	if err != nil {
		return err
	}
	n := path[len(path)-1]
	n.entries = append(n.entries, e)
	return t.handleOverflowAndAdjust(path, reinserted)
}

// choosePath descends from the root to a node at the target level,
// returning the nodes along the way (root first). Every node on the
// path will be modified, so each is shadowed onto a fresh page as it
// is read (its parent is in memory and gets the new child id).
func (t *Tree) choosePath(r geom.Rect, level int) ([]*node, error) {
	var path []*node
	id := t.root
	parentIdx := -1
	for {
		n, err := t.st.readNode(id)
		if err != nil {
			return nil, err
		}
		if err := t.shadowNode(n); err != nil {
			return nil, err
		}
		if n.id != id {
			if len(path) == 0 {
				t.root = n.id
			} else {
				path[len(path)-1].entries[parentIdx].Child = n.id
			}
		}
		path = append(path, n)
		if n.level == level {
			return path, nil
		}
		parentIdx = t.chooseSubtree(n, r)
		id = n.entries[parentIdx].Child
	}
}

// chooseSubtree picks the child slot to descend into.
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

// handleOverflowAndAdjust writes the modified tail node of path,
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
		if err := t.st.writeNode(n); err != nil {
			return err
		}
		if sibling != nil {
			if err := t.st.writeNode(sibling); err != nil {
				return err
			}
		}
		if i == 0 {
			// Root level: grow the tree if the root split.
			if sibling != nil {
				newRoot, err := t.allocMutNode(n.level + 1)
				if err != nil {
					return err
				}
				newRoot.entries = []Entry{
					{Rect: n.mbr(), Child: n.id},
					{Rect: sibling.mbr(), Child: sibling.id},
				}
				if err := t.st.writeNode(newRoot); err != nil {
					return err
				}
				t.root = newRoot.id
				t.depth++
			}
			return nil
		}
		// Update the parent's rectangle for n, and add the sibling.
		parent := path[i-1]
		slot := -1
		for j := range parent.entries {
			if parent.entries[j].Child == n.id {
				slot = j
				break
			}
		}
		if slot < 0 {
			return fmt.Errorf("rtree: node %d not found in parent %d", n.id, parent.id)
		}
		parent.entries[slot].Rect = n.mbr()
		if sibling != nil {
			parent.entries = append(parent.entries, Entry{Rect: sibling.mbr(), Child: sibling.id})
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

	// Write the tightened node and adjust ancestors.
	if err := t.st.writeNode(n); err != nil {
		return err
	}
	for i := idx - 1; i >= 0; i-- {
		parent := path[i]
		child := path[i+1]
		for j := range parent.entries {
			if parent.entries[j].Child == child.id {
				parent.entries[j].Rect = child.mbr()
				break
			}
		}
		if err := t.st.writeNode(parent); err != nil {
			return err
		}
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
		leafPath, slot, err := t.findLeaf(t.root, nil, r, oid)
		if err != nil {
			return err
		}
		if leafPath == nil {
			return ErrNotFound
		}
		if err := t.shadowPath(leafPath); err != nil {
			return err
		}
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
// the root-to-leaf path and the slot index.
func (t *Tree) findLeaf(id pagefile.PageID, path []*node, r geom.Rect, oid uint64) ([]*node, int, error) {
	n, err := t.st.readNode(id)
	if err != nil {
		return nil, 0, err
	}
	path = append(path, n)
	if n.isLeaf() {
		for i, e := range n.entries {
			if e.OID == oid && e.Rect == r {
				return path, i, nil
			}
		}
		return nil, 0, nil
	}
	for _, e := range n.entries {
		if e.Rect.ContainsRect(r) {
			found, slot, err := t.findLeaf(e.Child, path, r, oid)
			if err != nil {
				return nil, 0, err
			}
			if found != nil {
				return found, slot, nil
			}
		}
	}
	return nil, 0, nil
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
		n := path[i]
		parent := path[i-1]
		slot := -1
		for j := range parent.entries {
			if parent.entries[j].Child == n.id {
				slot = j
				break
			}
		}
		if slot < 0 {
			return fmt.Errorf("rtree: condense: node %d not in parent %d", n.id, parent.id)
		}
		if len(n.entries) < minFill {
			// Remove the node; its entries will be reinserted.
			parent.entries = append(parent.entries[:slot], parent.entries[slot+1:]...)
			orphans = append(orphans, orphan{level: n.level, entries: n.entries})
			if err := t.freeMutNode(n); err != nil {
				return err
			}
		} else {
			parent.entries[slot].Rect = n.mbr()
			if err := t.st.writeNode(n); err != nil {
				return err
			}
		}
	}
	if err := t.st.writeNode(path[0]); err != nil {
		return err
	}
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
		root, err := t.st.readNode(t.root)
		if err != nil {
			return err
		}
		if root.isLeaf() || len(root.entries) != 1 {
			return nil
		}
		child := root.entries[0].Child
		if err := t.freeMutNode(root); err != nil {
			return err
		}
		t.root = child
		t.depth--
	}
}
