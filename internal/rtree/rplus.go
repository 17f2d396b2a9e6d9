package rtree

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"

	"mbrtopo/internal/geom"
	"mbrtopo/internal/pagefile"
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
// make a node unsplittable; Insert then returns ErrUnsplittable,
// mirroring the paper's footnote that "in such cases R+-trees do not
// work (Greene 1989)", and leaves the tree as it was.
//
// An RPlusTree is safe for concurrent use under the same copy-on-write
// protocol as Tree (snapshot.go): searches pin a published snapshot and
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

// NewRPlus creates an R+-tree over the given page file. The paper's
// experimental setting (minimal number of rectangle splits as the cost
// function) is built in.
func NewRPlus(file pagefile.File) (*RPlusTree, error) {
	return newRPlus(newStore(file))
}

// NewRPlusArena creates an R+-tree that keeps its nodes decoded in
// memory and charges accesses at the node capacity of pageSize (see
// NewArena).
func NewRPlusArena(pageSize int) (*RPlusTree, error) {
	return newRPlus(newArenaStore(pageSize, make([]*node, arenaMinSlots), 1))
}

// rplusName is the R+-tree's Name.
const rplusName = "R+-tree"

func newRPlus(st *store) (*RPlusTree, error) {
	t := &RPlusTree{}
	if err := t.startEmpty(st, rplusName, false); err != nil {
		return nil, err
	}
	return t, nil
}

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
func (t *RPlusTree) scanBounds() (geom.Rect, bool, error) {
	var out geom.Rect
	found := false
	all := func(geom.Rect) bool { return true }
	_, err := traverse(context.Background(), t.st, uint64(t.root), all, all,
		func(h Hit) bool {
			out, found = covering(out, found, h.Rect), true
			return true
		})
	return out, found, err
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
				newRoot, err := t.allocMutNode(t.depth) // old depth == old root level + 1
				if err != nil {
					return err
				}
				newRoot.entries = pieces
				t.depth++
				if pieces, err = t.normalize(newRoot, worldRect()); err != nil {
					return err
				}
			}
			t.root = pieces[0].Child
			t.bounds, t.bounded = covering(t.bounds, t.bounded, rec.Rect), true
			t.size++
		}
		return nil
	})
}

// insertRec inserts the entry into the subtree rooted at id (with the
// given partition region) and returns the replacement parent entries
// for this subtree: one entry when the node did not split, several
// after splits. Every node it writes is shadowed, so the entries carry
// the subtree's new ids up the path.
func (t *RPlusTree) insertRec(id pagefile.PageID, region geom.Rect, e Entry) ([]Entry, error) {
	n, err := t.st.readNode(id)
	if err != nil {
		return nil, err
	}
	if n.isLeaf() {
		n.entries = append(n.entries, e)
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
	n.entries = out
	if !changed {
		return []Entry{{Rect: region, Child: n.id}}, nil
	}
	return t.normalize(n, region)
}

// maxOverflowChain bounds how far past capacity an unsplittable node
// may grow via overflow pages before the tree reports degeneracy.
const maxOverflowChain = 16

// normalize writes the node if it fits its page, or cuts it (possibly
// repeatedly) until every piece fits, returning the parent entries
// describing the pieces. A node facing Greene's degeneracy — more
// entries than capacity, with every candidate cut crossed by all of
// them — is written onto an overflow chain instead (each chained page
// costs one extra read when the node is visited), bounded by
// maxOverflowChain to keep runaway growth detectable.
func (t *RPlusTree) normalize(n *node, region geom.Rect) ([]Entry, error) {
	if len(n.entries) > t.st.cap {
		if axis, cut, ok := chooseCut(n, region); ok {
			return t.divide(n, region, axis, cut)
		}
		if len(n.entries) > t.st.cap*maxOverflowChain {
			return nil, fmt.Errorf("%w: node %d (%d entries)", ErrUnsplittable, n.id, len(n.entries))
		}
	}
	if err := t.writeMutNode(n); err != nil {
		return nil, err
	}
	return []Entry{{Rect: region, Child: n.id}}, nil
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
		default:
			child, err := t.st.readNode(e.Child)
			if err != nil {
				return nil, err
			}
			pieces, err := t.divide(child, e.Rect, axis, cut)
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
	sib, err := t.allocMutNode(n.level)
	if err != nil {
		return nil, err
	}
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

// Delete removes the object (rect, oid) from every leaf it is
// registered in. Underfull leaves are tolerated: the original R+-tree
// paper leaves deletion-time reorganisation to periodic rebuilds.
func (t *RPlusTree) Delete(r geom.Rect, oid uint64) error {
	return t.mutate(func() error {
		removed, root, err := t.deleteRec(t.root, r, oid)
		if err != nil {
			return err
		}
		if removed == 0 {
			return ErrNotFound
		}
		t.root = root
		t.size--
		switch b := t.bounds; {
		case t.size == 0:
			t.bounded = false
		case r.Min.X == b.Min.X || r.Min.Y == b.Min.Y || r.Max.X == b.Max.X || r.Max.Y == b.Max.Y:
			// r may have been alone in reaching that edge: only then can
			// the MBR shrink, and only a scan says to what. A scan that
			// fails keeps the old MBR, which still covers what is stored.
			if nb, ok, err := t.scanBounds(); err == nil {
				t.bounds, t.bounded = nb, ok
			}
		}
		return nil
	})
}

// deleteRec removes (r, oid) from the subtree rooted at id and returns
// how many registrations it removed and the subtree's id afterwards: a
// node that lost an entry, or whose child moved, is rewritten shadowed.
func (t *RPlusTree) deleteRec(id pagefile.PageID, r geom.Rect, oid uint64) (int, pagefile.PageID, error) {
	n, err := t.st.readNode(id)
	if err != nil {
		return 0, 0, err
	}
	removed := 0
	if n.isLeaf() {
		had := len(n.entries)
		n.entries = slices.DeleteFunc(n.entries, func(e Entry) bool { return e.OID == oid && e.Rect == r })
		removed = had - len(n.entries)
	} else {
		for i, ce := range n.entries {
			if !ce.Rect.IntersectsInterior(r) {
				continue
			}
			k, child, err := t.deleteRec(ce.Child, r, oid)
			if err != nil {
				return 0, 0, err
			}
			removed += k
			n.entries[i].Child = child
		}
	}
	if removed == 0 {
		return 0, id, nil
	}
	if err := t.writeMutNode(n); err != nil {
		return 0, 0, err
	}
	return removed, n.id, nil
}
