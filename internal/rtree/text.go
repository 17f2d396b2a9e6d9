package rtree

import (
	"strconv"

	"mbrtopo/internal/geom"
)

// This file is the side-car of a leaf: each entry's /v1/query match
// line without its constant framing, `N,"rect":[x,y,x,y]` — the oid in
// decimal, the rectangle in wire form (geom.Rect.AppendWire) — rendered
// once per node version so that a served answer copies the bytes
// instead of deriving the same digits of the same stored values on
// every match. The server frames a segment with {"oid": and }\n
// (Leaf.Lines); a join pair line copies only its rectangle (Hit.Text).
//
// The text is earned, by a rent-or-buy rule that has no constant to
// tune: a consumer asking for entries' text before the leaf has any
// gets none, renders those entries itself, and is counted; once
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

// leafText is every entry's segment, back to back: entry i's is
// s[off[i]:off[i+1]], empty when its rectangle is not finite and so has
// no wire form.
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

// lineKey separates a segment's oid from its rectangle.
const lineKey = `,"rect":`

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
	t := n.earn(1)
	if t == nil {
		return ""
	}
	seg := t.s[t.off[h.at]:t.off[h.at+1]]
	if seg == "" {
		return ""
	}
	return seg[decimalLen(h.OID)+len(lineKey):]
}

// decimalLen is the number of digits of x in decimal.
func decimalLen(x uint64) int {
	n := 1
	for ; x >= 10; x /= 10 {
		n++
	}
	return n
}

// Lines asks the leaf for the text of the batch's entries — each counts
// under the rent-or-buy rule, as a Hit.Text call would — and returns it
// when the leaf has earned it; ok is false before, and the caller then
// renders the batch itself.
func (l Leaf) Lines() (lines Lines, ok bool) {
	t := l.n.earn(len(l.at))
	return Lines{t: t, at: l.at}, t != nil
}

// Lines is an earned leaf's text for one batch of its entries.
type Lines struct {
	t  *leafText
	at []int32
}

// Line returns batch entry i's match line without its constant
// framing, `N,"rect":[x,y,x,y]`, or "" for a rectangle that has no wire
// form.
func (ls Lines) Line(i int) string {
	j := ls.at[i]
	return ls.t.s[ls.t.off[j]:ls.t.off[j+1]]
}

// earn is the rent-or-buy rule for k entries asked about at once: the
// leaf's text once it has it or buys it now, nil while the renderings
// consumers did themselves, these k included, are no more than the
// leaf's entries.
func (n *node) earn(k int) *leafText {
	if t := n.text.Load(); t != nil {
		return t
	}
	if int(n.rented.Add(int32(k))) <= len(n.entries) {
		return nil
	}
	return n.renderText()
}

// renderText buys the leaf's text. Two consumers crossing the
// threshold together both render; one result is published.
func (n *node) renderText() *leafText {
	t := n.render()
	if !n.text.CompareAndSwap(nil, t) {
		t = n.text.Load()
	}
	return t
}

// render renders the leaf's text without publishing it.
func (n *node) render() *leafText {
	off := make([]uint32, len(n.entries)+1)
	buf := make([]byte, 0, 112*len(n.entries)) // scratch; the string below is cut to size
	for i := range n.entries {
		if e := &n.entries[i]; e.Rect.Finite() {
			buf = strconv.AppendUint(buf, e.OID, 10)
			buf = append(buf, lineKey...)
			buf = e.Rect.AppendWire(buf)
		}
		off[i+1] = uint32(len(buf))
	}
	return &leafText{s: string(buf), off: off}
}
