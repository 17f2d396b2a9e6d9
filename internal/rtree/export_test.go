package rtree

import (
	"context"
	"errors"
	"slices"

	"mbrtopo/internal/mbr"
)

// PackTies STR-packs recs into an empty arena tree of the page size,
// as InsertBatch does, and returns how many of the pack's sorts took
// the tie rule.
func PackTies(pageSize int, recs []Record) (int, error) {
	t, err := NewArena(pageSize, Options{}, "packed")
	if err != nil {
		return 0, err
	}
	var ties int
	err = t.mutate(func() error {
		ties = t.packInto(recs)
		return nil
	})
	return ties, err
}

// JoinCuts walks the node pairs a serial join of t1 and t2 under prune
// and accept matches, and counts the leaf pairs it sweeps, the ones of
// those whose contained side (containedRight) is the right one, and the
// ones whose contained side has no entry in its window: the pairs
// matchSweep ends before it filters the other side. The emptiness is
// decided by a scan of every entry, not by the kept order.
func JoinCuts(t1, t2 *Tree, prune, accept mbr.Test) (swept, rightFirst, cut int, err error) {
	leaf, ok := accept.Domination().Sweep()
	if !ok {
		return 0, 0, 0, errors.New("rtree: the accept test takes no sweep")
	}
	e := &joinEngine{prune: prune, accept: accept, leaf: &leaf, node: &touching, ctx: context.Background()}
	e.src1, e.src2 = t1.st, t2.st
	w := &joinWorker{e: e}
	var walk func(n1, n2 *node) error
	walk = func(n1, n2 *node) error {
		if !n1.isLeaf() || !n2.isLeaf() {
			return w.descend(n1, n2, walk)
		}
		if len(n1.entries)*len(n2.entries) < sweepMinPairs {
			return nil
		}
		swept++
		m1, m2 := n1.mbr(), n2.mbr()
		if !m1.Intersects(m2) {
			return nil
		}
		n, win := n1, leaf.Left(m2)
		if win2 := leaf.Right(m1); containedRight(win, win2) {
			n, win = n2, win2
			rightFirst++
		}
		if !slices.ContainsFunc(n.entries, func(e Entry) bool { return win.Fits(e.Rect) }) {
			cut++
		}
		return nil
	}
	root1, root2 := t1.cur.Load().root, t2.cur.Load().root
	if m1, m2 := root1.mbr(), root2.mbr(); len(root1.entries) == 0 || len(root2.entries) == 0 || !prune.Admits(&m1, &m2) {
		return 0, 0, 0, nil
	}
	err = walk(root1, root2)
	return swept, rightFirst, cut, err
}
