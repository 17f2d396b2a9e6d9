package rtree

import (
	"mbrtopo/internal/geom"
)

// This file is the side-car of a leaf: its entries' rectangles
// in wire form (geom.Rect.AppendWire), rendered once per node version
// so that a served answer copies the bytes instead of deriving the
// shortest digits of the same stored floats on every match.
//
// The text is earned, by a rent-or-buy rule that has no constant to
// tune: a consumer asking for an entry's text before the leaf has any
// gets none, renders that one rectangle itself, and is counted; once
// consumers have rendered as many entries the slow way as the leaf
// holds, the next one to ask renders the leaf whole. A leaf nobody asks
// about costs nothing, one that answers keep landing on stops costing
// anything after about two answers' worth of work, and the rendering
// done before the purchase never exceeds the purchase.
//
// The text hangs off the node version and is immutable once published,
// so copy-on-write is its whole invalidation story: a mutation installs
// a new version, which starts unearned, and the old version keeps its
// text for the readers (and the checkpoint image) that still hold it.

// leafText is every entry's rectangle in wire form, back to back:
// entry i is s[off[i]:off[i+1]], empty when its rectangle is not
// finite and so has no wire form.
type leafText struct {
	s   string
	off []uint32
}

// Hit is one leaf entry a traversal or join hands to its emit.
type Hit struct {
	Rect geom.Rect
	OID  uint64

	leaf *node
	at   int // the entry's index in leaf
}

// Text returns the rectangle in wire form when the leaf the entry sits
// in has earned its text, and "" when it has not (or never will: a Hit
// built outside this package, a non-finite rectangle) — the caller then
// renders the rectangle itself. Asking is what earns: callers that do
// not need the bytes must not call Text.
func (h Hit) Text() string {
	n := h.leaf
	if n == nil {
		return ""
	}
	t := n.text.Load()
	if t == nil {
		if int(n.rented.Add(1)) <= len(n.entries) {
			return ""
		}
		t = n.renderText()
	}
	return t.s[t.off[h.at]:t.off[h.at+1]]
}

// renderText buys the leaf's text. Two consumers crossing the
// threshold together both render; one result is published.
func (n *node) renderText() *leafText {
	off := make([]uint32, len(n.entries)+1)
	buf := make([]byte, 0, 96*len(n.entries)) // scratch; the string below is cut to size
	for i := range n.entries {
		if r := n.entries[i].Rect; r.Finite() {
			buf = r.AppendWire(buf)
		}
		off[i+1] = uint32(len(buf))
	}
	t := &leafText{s: string(buf), off: off}
	if !n.text.CompareAndSwap(nil, t) {
		t = n.text.Load()
	}
	return t
}
