package rtree

import (
	"fmt"
	"math"
	"slices"

	"mbrtopo/internal/geom"
)

// This file implements structural self-checks used by the test suite
// and available to applications that want to audit an index after bulk
// operations.

// CheckInvariants verifies the structural invariants of an R-/R*-tree:
// uniform leaf depth, exact parent rectangles (every internal entry's
// rectangle is the tight MBR of its child, recomputed from the child's
// entries), fill factors within [m, M] except for the root, an entry
// count matching Len, and every node's side-cars (checkSidecars).
func (t *Tree) CheckInvariants() error {
	s := t.cur.Load()
	count := 0
	minFill := minEntries(t.st.cap)
	var walk func(n *node, depth int, isRoot bool) error
	walk = func(n *node, depth int, isRoot bool) error {
		t.st.get(n)
		if err := n.checkSidecars(); err != nil {
			return err
		}
		if len(n.entries) > t.st.cap {
			return fmt.Errorf("rtree: level-%d node overfull (%d > %d)", n.level, len(n.entries), t.st.cap)
		}
		if !isRoot && len(n.entries) < minFill {
			return fmt.Errorf("rtree: level-%d node underfull (%d < %d)", n.level, len(n.entries), minFill)
		}
		if isRoot && !n.isLeaf() && len(n.entries) < 2 {
			return fmt.Errorf("rtree: internal root has %d entries", len(n.entries))
		}
		if n.isLeaf() {
			if depth != s.depth {
				return fmt.Errorf("rtree: leaf at depth %d, want %d", depth, s.depth)
			}
			count += len(n.entries)
			return nil
		}
		for _, e := range n.entries {
			child := t.st.get(e.Child)
			if child.level != n.level-1 {
				return fmt.Errorf("rtree: level-%d node has a child of level %d", n.level, child.level)
			}
			if got := child.union(); got != e.Rect {
				return fmt.Errorf("rtree: level-%d node stores rect %v for a child whose tight MBR is %v",
					n.level, e.Rect, got)
			}
			if err := walk(e.Child, depth+1, false); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(s.root, 1, true); err != nil {
		return err
	}
	if count != s.size {
		return fmt.Errorf("rtree: tree holds %d entries, Len says %d", count, s.size)
	}
	return nil
}

// CheckInvariants verifies the structural invariants of an R+-tree:
// uniform leaf depth, sibling regions that exactly partition the
// parent region (pairwise interior-disjoint, full coverage), child
// regions contained in the parent region, every leaf entry's rectangle
// sharing interior with its leaf region, and — the zero-false-miss
// property — every stored (rect, oid) registered in every leaf whose
// region its interior intersects, as many times in each as it was
// inserted, those counts summing to Len; the leaf-entry count, within
// entryBudget per registration (overBudget); and every node's
// side-cars (checkSidecars).
func (t *RPlusTree) CheckInvariants() error {
	s := t.cur.Load()
	leaves := make(map[*node]map[Record]int) // each leaf's copies of each pair
	objects := make(map[Record]int)          // most registrations of a pair in one leaf
	entries := 0

	var walk func(n *node, region geom.Rect, depth int) error
	walk = func(n *node, region geom.Rect, depth int) error {
		t.st.get(n)
		if err := n.checkSidecars(); err != nil {
			return err
		}
		// Overflow pages (Greene's degeneracy) are legal but bounded.
		if len(n.entries) > t.st.cap*maxOverflowChain {
			return fmt.Errorf("rtree: R+ node overfull beyond the overflow bound (%d)", len(n.entries))
		}
		if len(n.entries) > t.st.cap && n.cost == 1 {
			return fmt.Errorf("rtree: R+ node overfull (%d) without overflow pages", len(n.entries))
		}
		if n.isLeaf() {
			if depth != s.depth {
				return fmt.Errorf("rtree: R+ leaf at depth %d, want %d", depth, s.depth)
			}
			entries += len(n.entries)
			count := make(map[Record]int, len(n.entries))
			for _, e := range n.entries {
				if !e.Rect.IntersectsInterior(region) {
					return fmt.Errorf("rtree: R+ leaf (region %v) holds foreign rect %v", region, e.Rect)
				}
				rec := Record{Rect: e.Rect, OID: e.OID}
				count[rec]++
				objects[rec] = max(objects[rec], count[rec])
			}
			leaves[n] = count
			return nil
		}
		if len(n.entries) == 0 {
			return fmt.Errorf("rtree: internal R+ node is empty")
		}
		area := 0.0
		for i, e := range n.entries {
			if !region.ContainsRect(e.Rect) {
				return fmt.Errorf("rtree: R+ node region %v does not contain child region %v", region, e.Rect)
			}
			for j := i + 1; j < len(n.entries); j++ {
				if e.Rect.IntersectsInterior(n.entries[j].Rect) {
					return fmt.Errorf("rtree: R+ node has overlapping child regions %v and %v",
						e.Rect, n.entries[j].Rect)
				}
			}
			area += e.Rect.Area()
			if err := walk(e.Child, e.Rect, depth+1); err != nil {
				return err
			}
		}
		if pa := region.Area(); math.Abs(area-pa) > 1e-6*pa {
			return fmt.Errorf("rtree: R+ node child regions cover %.9g of parent area %.9g", area, pa)
		}
		return nil
	}
	if err := walk(s.root, worldRect(), 1); err != nil {
		return err
	}
	stored := 0
	for rec, k := range objects {
		stored += k
		// Zero-false-miss: every leaf whose region the rectangle's
		// interior overlaps — the leaves a descent through the regions it
		// overlaps reaches — holds it, as often as any leaf does.
		for stack := []Entry{{Rect: worldRect(), Child: s.root}}; len(stack) > 0; {
			e := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if got := leaves[e.Child][rec]; e.Child.isLeaf() && got != k {
				return fmt.Errorf("rtree: object %d (%v) registered %d times in leaf region %v, %d times in another",
					rec.OID, rec.Rect, got, e.Rect, k)
			}
			for _, c := range e.Child.entries {
				if !e.Child.isLeaf() && rec.Rect.IntersectsInterior(c.Rect) {
					stack = append(stack, c)
				}
			}
		}
	}
	if stored != s.size {
		return fmt.Errorf("rtree: R+ holds %d objects, Len says %d", stored, s.size)
	}
	if entries != s.leafEntries {
		return fmt.Errorf("rtree: R+ leaves hold %d entries, the count says %d", entries, s.leafEntries)
	}
	return overBudget(entries, s.size)
}

// checkSidecars verifies the caches a node version carries against its
// entries, recomputed: a join's kept MBR is the union of the entries
// and its kept order a permutation of them sorted by byLowX, and a
// leaf's earned text is a fresh rendering of its entries.
func (n *node) checkSidecars() error {
	if k := n.sweep.Load(); k != nil {
		if u := n.union(); k.mbr != u {
			return fmt.Errorf("rtree: level-%d node keeps MBR %v for entries whose union is %v", n.level, k.mbr, u)
		}
		if len(k.ord) != len(n.entries) {
			return fmt.Errorf("rtree: level-%d node keeps a sweep order of %d for %d entries", n.level, len(k.ord), len(n.entries))
		}
		seen := make([]bool, len(n.entries))
		for i, j := range k.ord {
			if j < 0 || int(j) >= len(n.entries) || seen[j] {
				return fmt.Errorf("rtree: level-%d node's sweep order %v is not a permutation of its entries", n.level, k.ord)
			}
			seen[j] = true
			if i > 0 && n.byLowX(k.ord[i-1], j) >= 0 {
				return fmt.Errorf("rtree: level-%d node's sweep order %v is not sorted by low x", n.level, k.ord)
			}
		}
	}
	if t := n.text.Load(); t != nil {
		if f := n.render(); t.s != f.s || !slices.Equal(t.off, f.off) {
			return fmt.Errorf("rtree: leaf text %q is not the rendering of its entries, %q", t.s, f.s)
		}
	}
	return nil
}
