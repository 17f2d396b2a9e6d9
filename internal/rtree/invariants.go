package rtree

import (
	"fmt"
	"math"

	"mbrtopo/internal/geom"
	"mbrtopo/internal/pagefile"
)

// This file implements structural self-checks used by the test suite
// and available to applications that want to audit an index after bulk
// operations.

// CheckInvariants verifies the structural invariants of an R-/R*-tree:
// uniform leaf depth, exact parent rectangles (every internal entry's
// rectangle is the tight MBR of its child), fill factors within [m, M]
// except for the root, and an entry count matching Len.
func (t *Tree) CheckInvariants() error {
	s := t.acquire()
	defer t.release(s)
	leaves := 0
	count := 0
	minFill := minEntries(t.st.cap)
	var walk func(id pagefile.PageID, depth int, isRoot bool) error
	walk = func(id pagefile.PageID, depth int, isRoot bool) error {
		n, err := t.st.readNode(id)
		if err != nil {
			return err
		}
		if len(n.entries) > t.st.cap {
			return fmt.Errorf("rtree: node %d overfull (%d > %d)", id, len(n.entries), t.st.cap)
		}
		if !isRoot && len(n.entries) < minFill {
			return fmt.Errorf("rtree: node %d underfull (%d < %d)", id, len(n.entries), minFill)
		}
		if isRoot && !n.isLeaf() && len(n.entries) < 2 {
			return fmt.Errorf("rtree: internal root %d has %d entries", id, len(n.entries))
		}
		if n.isLeaf() {
			if depth != s.depth {
				return fmt.Errorf("rtree: leaf %d at depth %d, want %d", id, depth, s.depth)
			}
			if n.level != 0 {
				return fmt.Errorf("rtree: leaf %d has level %d", id, n.level)
			}
			leaves++
			count += len(n.entries)
			return nil
		}
		for _, e := range n.entries {
			child, err := t.st.readNode(e.Child)
			if err != nil {
				return err
			}
			if child.level != n.level-1 {
				return fmt.Errorf("rtree: node %d level %d has child %d level %d",
					id, n.level, e.Child, child.level)
			}
			if got := child.mbr(); got != e.Rect {
				return fmt.Errorf("rtree: parent %d stores rect %v for child %d, tight MBR is %v",
					id, e.Rect, e.Child, got)
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
// property — every stored object registered in every leaf whose region
// its interior intersects.
func (t *RPlusTree) CheckInvariants() error {
	t.mu.RLock()
	defer t.mu.RUnlock()
	type leafInfo struct {
		region geom.Rect
		oids   map[uint64]geom.Rect
	}
	var leaves []leafInfo
	objects := make(map[uint64]geom.Rect)

	var walk func(id pagefile.PageID, region geom.Rect, depth int) error
	walk = func(id pagefile.PageID, region geom.Rect, depth int) error {
		n, err := t.st.readNode(id)
		if err != nil {
			return err
		}
		// Overflow chains (Greene's degeneracy) are legal but bounded.
		if len(n.entries) > t.st.cap*maxOverflowChain {
			return fmt.Errorf("rtree: R+ node %d overfull beyond chain bound (%d)", id, len(n.entries))
		}
		if len(n.entries) > t.st.cap && n.accessCost() == 1 {
			return fmt.Errorf("rtree: R+ node %d overfull (%d) without overflow chain", id, len(n.entries))
		}
		if n.isLeaf() {
			if depth != t.depth {
				return fmt.Errorf("rtree: R+ leaf %d at depth %d, want %d", id, depth, t.depth)
			}
			li := leafInfo{region: region, oids: make(map[uint64]geom.Rect, len(n.entries))}
			for _, e := range n.entries {
				if !e.Rect.IntersectsInterior(region) {
					return fmt.Errorf("rtree: R+ leaf %d (region %v) holds foreign rect %v", id, region, e.Rect)
				}
				li.oids[e.OID] = e.Rect
				objects[e.OID] = e.Rect
			}
			leaves = append(leaves, li)
			return nil
		}
		if len(n.entries) == 0 {
			return fmt.Errorf("rtree: internal R+ node %d is empty", id)
		}
		area := 0.0
		for i, e := range n.entries {
			if !region.ContainsRect(e.Rect) {
				return fmt.Errorf("rtree: R+ node %d region %v does not contain child region %v", id, region, e.Rect)
			}
			for j := i + 1; j < len(n.entries); j++ {
				if e.Rect.IntersectsInterior(n.entries[j].Rect) {
					return fmt.Errorf("rtree: R+ node %d has overlapping child regions %v and %v",
						id, e.Rect, n.entries[j].Rect)
				}
			}
			area += e.Rect.Area()
			if err := walk(e.Child, e.Rect, depth+1); err != nil {
				return err
			}
		}
		if pa := region.Area(); math.Abs(area-pa) > 1e-6*pa {
			return fmt.Errorf("rtree: R+ node %d child regions cover %.9g of parent area %.9g", id, area, pa)
		}
		return nil
	}
	if err := walk(t.root, worldRect(), 1); err != nil {
		return err
	}
	if len(objects) != t.size {
		return fmt.Errorf("rtree: R+ holds %d distinct objects, Len says %d", len(objects), t.size)
	}
	// Zero-false-miss: an object must appear in every leaf whose region
	// overlaps its rectangle's interior.
	for oid, r := range objects {
		for _, li := range leaves {
			if r.IntersectsInterior(li.region) {
				if _, ok := li.oids[oid]; !ok {
					return fmt.Errorf("rtree: object %d (%v) missing from leaf region %v", oid, r, li.region)
				}
			}
		}
	}
	return nil
}
