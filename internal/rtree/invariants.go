package rtree

import (
	"fmt"
	"math"

	"mbrtopo/internal/geom"
)

// This file implements structural self-checks used by the test suite
// and available to applications that want to audit an index after bulk
// operations.

// CheckInvariants verifies the structural invariants of an R-/R*-tree:
// uniform leaf depth, exact parent rectangles (every internal entry's
// rectangle is the tight MBR of its child), fill factors within [m, M]
// except for the root, and an entry count matching Len.
func (t *Tree) CheckInvariants() error {
	s := t.cur.Load()
	leaves := 0
	count := 0
	minFill := minEntries(t.st.cap)
	var walk func(n *node, depth int, isRoot bool) error
	walk = func(n *node, depth int, isRoot bool) error {
		t.st.get(n)
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
			leaves++
			count += len(n.entries)
			return nil
		}
		for _, e := range n.entries {
			child := t.st.get(e.Child)
			if child.level != n.level-1 {
				return fmt.Errorf("rtree: level-%d node has a child of level %d", n.level, child.level)
			}
			if got := child.mbr(); got != e.Rect {
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
// inserted, those counts summing to Len.
func (t *RPlusTree) CheckInvariants() error {
	s := t.cur.Load()
	type leafInfo struct {
		region geom.Rect
		count  map[Record]int
	}
	var leaves []leafInfo
	objects := make(map[Record]int) // most registrations of a pair in one leaf

	var walk func(n *node, region geom.Rect, depth int) error
	walk = func(n *node, region geom.Rect, depth int) error {
		t.st.get(n)
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
			li := leafInfo{region: region, count: make(map[Record]int, len(n.entries))}
			for _, e := range n.entries {
				if !e.Rect.IntersectsInterior(region) {
					return fmt.Errorf("rtree: R+ leaf (region %v) holds foreign rect %v", region, e.Rect)
				}
				li.count[Record{Rect: e.Rect, OID: e.OID}]++
			}
			for rec, k := range li.count {
				objects[rec] = max(objects[rec], k)
			}
			leaves = append(leaves, li)
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
		// interior overlaps holds it, as often as any leaf does.
		for _, li := range leaves {
			if rec.Rect.IntersectsInterior(li.region) && li.count[rec] != k {
				return fmt.Errorf("rtree: object %d (%v) registered %d times in leaf region %v, %d times in another",
					rec.OID, rec.Rect, li.count[rec], li.region, k)
			}
		}
	}
	if stored != s.size {
		return fmt.Errorf("rtree: R+ holds %d objects, Len says %d", stored, s.size)
	}
	return nil
}
