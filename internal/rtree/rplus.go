package rtree

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"

	"mbrtopo/internal/geom"
	"mbrtopo/internal/mbr"
)

// RPlusTree is an R+-tree (Sellis, Roussopoulos, Faloutsos 1987): the
// rectangles of sibling internal entries never overlap. This
// implementation maintains the stronger invariant that each internal
// node's child regions exactly partition the node's region (the root
// region being the whole plane). A data rectangle crossing a partition
// boundary is registered in every leaf whose region its interior
// intersects, so searches may report the same object more than once —
// exactly the duplicate-entry trade-off the SIGMOD'95 paper discusses
// (more space, possibly one extra tree level).
//
// Node splits use the minimal-split cost function the paper selects
// for its experiments: the cut hyperplane crossing the fewest
// rectangles. Splitting an internal node forces recursive downward
// cuts of the children crossed by the cut line.
//
// Degenerate inputs (many rectangles stacking on the same point) can
// make a node unsplittable, and dense ones the tree over entryBudget;
// Insert (or Delete, for the budget) then returns ErrUnsplittable —
// the paper's footnote: "in such cases R+-trees do not work (Greene
// 1989)" — and leaves the tree as it was.
//
// An RPlusTree is safe for concurrent use under the same copy-on-write
// protocol as Tree (snapshot.go): searches read a published snapshot and
// never block behind writers, and a mutation either commits whole or
// leaves no trace.
type RPlusTree struct {
	core
}

// ErrUnsplittable reports that a node overflowed and no cut line can
// separate its entries (degenerate data).
var ErrUnsplittable = errors.New("rtree: R+ node cannot be split (degenerate data)")

// worldCoord bounds the plane for partition regions.
const worldCoord = 1e18

// worldRect is the root region.
func worldRect() geom.Rect {
	return geom.R(-worldCoord, -worldCoord, worldCoord, worldCoord)
}

// NewRPlusArena creates an empty R+-tree that keeps its nodes decoded
// in memory and charges accesses at the node capacity of pageSize (see
// NewArena). The paper's experimental setting (minimal number of
// rectangle splits as the cost function) is built in.
func NewRPlusArena(pageSize int) (*RPlusTree, error) {
	t := &RPlusTree{}
	if err := t.startEmpty(pageSize, rplusName, false); err != nil {
		return nil, err
	}
	return t, nil
}

// rplusName is the R+-tree's Name.
const rplusName = "R+-tree"

// covering returns the MBR of b and r, or r alone while b is not one
// yet.
func covering(b geom.Rect, ok bool, r geom.Rect) geom.Rect {
	if ok {
		return b.Union(r)
	}
	return r
}

// scanBounds computes the data MBR of the working tree from every
// leaf. Caller runs inside a mutation.
func (t *RPlusTree) scanBounds() (geom.Rect, bool) {
	var out geom.Rect
	found := false
	all := mbr.Func(func(geom.Rect) bool { return true })
	traverse(context.Background(), t.st, t.root, all, all,
		func(l Leaf) bool {
			for i := range l.Len() {
				out, found = covering(out, found, l.Hit(i).Rect), true
			}
			return true
		})
	return out, found
}

// Insert registers the rectangle in every leaf whose region its
// interior intersects.
func (t *RPlusTree) Insert(r geom.Rect, oid uint64) error {
	return t.InsertBatch([]Record{{Rect: r, OID: oid}})
}

// InsertBatch inserts a batch of rectangles one by one as one atomic
// mutation, like Tree.InsertBatch: queries observe either none or all
// of the batch, and a record that fails (ErrUnsplittable) leaves the
// tree as it was before the batch. The R+-tree's partition regions do
// not admit STR packing.
func (t *RPlusTree) InsertBatch(recs []Record) error {
	for _, r := range recs {
		if !r.Rect.Valid() {
			return fmt.Errorf("rtree: inserting degenerate rect %v", r.Rect)
		}
	}
	return t.mutate(func() error {
		for _, rec := range recs {
			pieces, err := t.insertRec(t.root, worldRect(), Entry{Rect: rec.Rect, OID: rec.OID})
			if err != nil {
				return err
			}
			// A split of the root yields several pieces: grow the tree.
			for len(pieces) > 1 {
				newRoot := t.allocMutNode(t.depth) // old depth == old root level + 1
				newRoot.entries = pieces
				t.depth++
				if pieces, err = t.normalize(newRoot, worldRect()); err != nil {
					return err
				}
			}
			t.root = pieces[0].Child
			t.bounds, t.bounded = covering(t.bounds, t.bounded, rec.Rect), true
			t.size++
			if err := overBudget(t.leafEntries, t.size); err != nil {
				return err
			}
		}
		return nil
	})
}

// entryBudget is the most leaf entries an R+-tree holds per stored
// registration. Duplication grows with density: the paper's runs reach
// 37.7 (10 000 large rectangles at capacity 50), 60 000 medium ones 67.8
// — 4 million entries on the way to an out-of-memory kill.
const entryBudget = 48

// overBudget is the error of size registrations in entries leaf entries
// over the budget. A mutation that leaves its working tree there fails,
// so every published version, and an image of one, is within it.
func overBudget(entries, size int) error {
	if entries <= entryBudget*size {
		return nil
	}
	return fmt.Errorf("%w: %d leaf entries for %d registrations, over the R+ budget of %d per registration",
		ErrUnsplittable, entries, size, entryBudget)
}

// insertRec inserts the entry into the subtree rooted at n (with the
// given partition region) and returns the replacement parent entries
// for this subtree: one entry when the node did not split, several
// after splits. Every node it changes is owned first, so the entries
// carry the subtree's copies up the path.
func (t *RPlusTree) insertRec(n *node, region geom.Rect, e Entry) ([]Entry, error) {
	if t.st.get(n).isLeaf() {
		n = t.own(n)
		n.entries = append(n.entries, e)
		t.leafEntries++
		return t.normalize(n, region)
	}
	changed := false
	out := n.entries[:0:0]
	for _, ce := range n.entries {
		if !ce.Rect.IntersectsInterior(e.Rect) {
			out = append(out, ce)
			continue
		}
		pieces, err := t.insertRec(ce.Child, ce.Rect, e)
		if err != nil {
			return nil, err
		}
		out = append(out, pieces...)
		if len(pieces) != 1 || pieces[0] != ce {
			changed = true
		}
	}
	if !changed {
		return []Entry{{Rect: region, Child: n}}, nil
	}
	n = t.own(n)
	n.entries = out
	return t.normalize(n, region)
}

// maxOverflowChain bounds how many pages' worth of entries an
// unsplittable node may hold before the tree reports degeneracy.
const maxOverflowChain = 16

// normalize installs the node, which the running mutation owns, if it
// fits its page, or cuts it (possibly repeatedly) until every piece
// fits, returning the parent entries describing the pieces. A node
// facing Greene's degeneracy — more entries than capacity, with every
// candidate cut crossed by all of them — is installed whole instead,
// charged its overflow pages (each costs one extra read when the node
// is visited), bounded by maxOverflowChain pages to keep runaway growth
// detectable.
func (t *RPlusTree) normalize(n *node, region geom.Rect) ([]Entry, error) {
	if len(n.entries) > t.st.cap {
		if axis, cut, ok := chooseCut(n, region); ok {
			return t.divide(n, region, axis, cut)
		}
		if len(n.entries) > t.st.cap*maxOverflowChain {
			return nil, fmt.Errorf("%w: a level-%d node of %d entries", ErrUnsplittable, n.level, len(n.entries))
		}
	}
	t.st.install(n)
	return []Entry{{Rect: region, Child: n}}, nil
}

// divide cuts node n (partition region region) by the hyperplane
// axis=cut. Leaf entries crossing the cut are registered on both
// sides; internal children crossing it are recursively divided with
// the same cut. n becomes the left side and a new sibling the right;
// each side is normalized in turn, so the returned pieces all fit their
// pages.
func (t *RPlusTree) divide(n *node, region geom.Rect, axis int, cut float64) ([]Entry, error) {
	leftRegion, rightRegion := splitRect(region, axis, cut)
	var le, re []Entry
	for _, e := range n.entries {
		lo, hi := e.Rect.Min.X, e.Rect.Max.X
		if axis == 1 {
			lo, hi = e.Rect.Min.Y, e.Rect.Max.Y
		}
		switch {
		case hi <= cut:
			le = append(le, e)
		case lo >= cut:
			re = append(re, e)
		case n.isLeaf():
			le = append(le, e)
			re = append(re, e)
			t.leafEntries++
		default:
			pieces, err := t.divide(t.own(t.st.get(e.Child)), e.Rect, axis, cut)
			if err != nil {
				return nil, err
			}
			// Partition geometry guarantees pieces on both sides.
			for _, p := range pieces {
				mid := p.Rect.Min.X
				if axis == 1 {
					mid = p.Rect.Min.Y
				}
				if mid >= cut {
					re = append(re, p)
				} else {
					le = append(le, p)
				}
			}
		}
	}
	sib := t.allocMutNode(n.level)
	n.entries = le
	sib.entries = re
	leftPieces, err := t.normalize(n, leftRegion)
	if err != nil {
		return nil, err
	}
	rightPieces, err := t.normalize(sib, rightRegion)
	if err != nil {
		return nil, err
	}
	return append(leftPieces, rightPieces...), nil
}

// splitRect cuts a region rectangle by axis=cut.
func splitRect(r geom.Rect, axis int, cut float64) (geom.Rect, geom.Rect) {
	l, rr := r, r
	if axis == 0 {
		l.Max.X, rr.Min.X = cut, cut
	} else {
		l.Max.Y, rr.Min.Y = cut, cut
	}
	return l, rr
}

// chooseCut selects the cut hyperplane for an overflowing node using
// the minimal-split cost function the paper configures: the candidate
// coordinate (an entry edge strictly inside the region) crossing the
// fewest entry rectangles, requiring both sides to end up strictly
// smaller than the original node. Ties prefer the more balanced cut.
func chooseCut(n *node, region geom.Rect) (axis int, cut float64, ok bool) {
	bestCost, bestBalance := -1, 0
	total := len(n.entries)
	for ax := 0; ax < 2; ax++ {
		lo := func(e Entry) float64 {
			if ax == 0 {
				return e.Rect.Min.X
			}
			return e.Rect.Min.Y
		}
		hi := func(e Entry) float64 {
			if ax == 0 {
				return e.Rect.Max.X
			}
			return e.Rect.Max.Y
		}
		rlo, rhi := region.Min.X, region.Max.X
		if ax == 1 {
			rlo, rhi = region.Min.Y, region.Max.Y
		}
		var cands []float64
		for _, e := range n.entries {
			for _, v := range []float64{lo(e), hi(e)} {
				if v > rlo && v < rhi {
					cands = append(cands, v)
				}
			}
		}
		sort.Float64s(cands)
		cands = dedupFloats(cands)
		for _, v := range cands {
			nl, nr, cross := 0, 0, 0
			for _, e := range n.entries {
				switch {
				case hi(e) <= v:
					nl++
				case lo(e) >= v:
					nr++
				default:
					cross++
				}
			}
			// Each side receives its own entries plus the crossers.
			sideL, sideR := nl+cross, nr+cross
			if sideL >= total || sideR >= total {
				continue // no progress: one side keeps everything
			}
			balance := sideL - sideR
			if balance < 0 {
				balance = -balance
			}
			if bestCost == -1 || cross < bestCost || (cross == bestCost && balance < bestBalance) {
				bestCost, bestBalance = cross, balance
				axis, cut, ok = ax, v, true
			}
		}
	}
	return axis, cut, ok
}

func dedupFloats(s []float64) []float64 {
	out := s[:0]
	for i, v := range s {
		if i == 0 || v != s[i-1] {
			out = append(out, v)
		}
	}
	return out
}

// Delete removes one registration of the object (rect, oid) from every
// leaf it is registered in. Underfull leaves are tolerated: the original
// R+-tree paper leaves deletion-time reorganisation to periodic
// rebuilds.
func (t *RPlusTree) Delete(r geom.Rect, oid uint64) error {
	return t.mutate(func() error {
		removed, root := t.deleteRec(t.root, r, oid)
		if removed == 0 {
			return ErrNotFound
		}
		t.root = root
		t.size--
		if err := overBudget(t.leafEntries, t.size); err != nil {
			return err
		}
		switch b := t.bounds; {
		case t.size == 0:
			t.bounded = false
		case r.Min.X == b.Min.X || r.Min.Y == b.Min.Y || r.Max.X == b.Max.X || r.Max.Y == b.Max.Y:
			// r may have been alone in reaching that edge: only then can
			// the MBR shrink, and only a scan says to what.
			t.bounds, t.bounded = t.scanBounds()
		}
		return nil
	})
}

// deleteRec removes one (r, oid) entry from each leaf of the subtree
// rooted at n that holds one, and returns how many it removed and the
// subtree's root afterwards: a node that lost an entry, or whose child
// was copied, is owned and rewritten.
func (t *RPlusTree) deleteRec(n *node, r geom.Rect, oid uint64) (int, *node) {
	removed := 0
	if t.st.get(n).isLeaf() {
		if i := slices.IndexFunc(n.entries, func(e Entry) bool { return e.OID == oid && e.Rect == r }); i >= 0 {
			n = t.own(n)
			n.entries = slices.Delete(n.entries, i, i+1)
			t.leafEntries--
			removed = 1
		}
	} else {
		for i := range n.entries {
			if !n.entries[i].Rect.IntersectsInterior(r) {
				continue
			}
			k, child := t.deleteRec(n.entries[i].Child, r, oid)
			if k == 0 {
				continue
			}
			removed += k
			n = t.own(n)
			n.entries[i].Child = child
		}
	}
	if removed > 0 {
		t.st.install(n)
	}
	return removed, n
}
