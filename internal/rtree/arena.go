package rtree

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync/atomic"

	"mbrtopo/internal/pagefile"
)

// This file is the node store of every tree: decoded nodes on the heap,
// children by pointer. An access on the read path is a pointer
// dereference — no page copy, no decode, no allocation.
//
// A node a mutation has published (snapshot.go) is one immutable node
// version: nothing modifies its entries again, so the *node a reader
// reaches can be shared by any number of traversals. A mutation changes
// only nodes it created itself, copying a published one first
// (checkOut); install charges each write. The bulk loader's nodes keep
// the entries they were packed in, a capped subslice of the level's one
// buffer (installOwned). What a version gains after it is published are
// its two side-cars — the wire text of a leaf's rectangles (text.go) and
// the sweep order and MBR a join keeps (join.go) — which are derived
// from the entries alone, hang off the version itself and go when the
// version does: when no reader holds a root it is reachable from.
//
// The arena charges what pages would cost, the paper's metric: a node
// costs 1 + its overflow pages at the capacity of the tree's page size
// (node.cost), reads sum that cost, and the write/alloc/free counters
// move by the same page counts.
type arena struct {
	cap int // maximum entries that fit a page

	reads, writes, allocs, frees atomic.Uint64
}

// maxCapacity is the largest node capacity a tree accepts: an R+ node
// may hold maxOverflowChain pages' worth of entries, and an MBRFLAT1
// record counts a node's entries in a uint16.
const maxCapacity = math.MaxUint16 / maxOverflowChain

// newArena returns an arena charging costs at the node capacity of
// pageSize — the one check of a page size, for new and adopted trees
// alike.
func newArena(pageSize int) (*arena, error) {
	capacity := CapacityForPageSize(pageSize)
	if capacity < 4 {
		return nil, fmt.Errorf("rtree: page size %d too small (capacity %d)", pageSize, capacity)
	}
	if capacity > maxCapacity {
		return nil, fmt.Errorf("rtree: page size %d too large (capacity %d, at most %d)", pageSize, capacity, maxCapacity)
	}
	return &arena{cap: capacity}, nil
}

// pagesFor is the number of pages a node with count entries occupies
// at the given capacity: one, plus its overflow pages.
func pagesFor(count, capacity int) uint32 {
	if count <= capacity {
		return 1
	}
	return uint32((count + capacity - 1) / capacity)
}

// get charges a read of n to the read counter and returns it.
func (a *arena) get(n *node) *node {
	a.reads.Add(uint64(n.cost))
	return n
}

// alloc returns a new empty node of the given level: one page, as a
// freshly allocated page reads.
func (a *arena) alloc(level int) *node {
	a.allocs.Add(1)
	return &node{level: level, cost: 1}
}

// checkOut returns a new node holding a copy of n's entries for a
// mutation path to modify and install, with room for the one entry an
// insertion adds before it splits.
func (a *arena) checkOut(n *node) *node {
	c := a.alloc(n.level)
	c.entries = make([]Entry, len(n.entries), max(len(n.entries), a.cap)+1)
	copy(c.entries, n.entries)
	return c
}

// install charges the write of a node the running mutation built,
// giving it entries of its own, cut to size, so the caller may go on
// changing it until the mutation publishes.
func (a *arena) install(n *node) {
	n.entries = slices.Clone(n.entries)
	a.installOwned(n)
}

// installOwned charges the write of n as it is: a freshly packed node
// (packLevel) keeps the capped subslice of its level's buffer.
func (a *arena) installOwned(n *node) {
	old := n.cost
	n.cost = pagesFor(len(n.entries), a.cap)
	a.writes.Add(uint64(n.cost))
	// The overflow pages grow or shrink with the entry count.
	if n.cost > old {
		a.allocs.Add(uint64(n.cost - old))
	} else {
		a.frees.Add(uint64(old - n.cost))
	}
}

// free charges the pages of a dropped node to the free counter.
func (a *arena) free(n *node) { a.frees.Add(uint64(n.cost)) }

func (a *arena) stats() pagefile.Stats {
	return pagefile.Stats{
		Reads:  a.reads.Load(),
		Writes: a.writes.Load(),
		Allocs: a.allocs.Load(),
		Frees:  a.frees.Load(),
	}
}

func (a *arena) resetStats() {
	a.reads.Store(0)
	a.writes.Store(0)
	a.allocs.Store(0)
	a.frees.Store(0)
}

// ErrNodeCapacity is returned by Adopt and AdoptRPlus for an image
// written under another page size: some node does not fit the page
// cost recorded for it at the capacity asked for, so charging that cost
// would misstate what a node of this page size costs to read. The entries
// are still good — rebuild a tree from them instead.
var ErrNodeCapacity = errors.New("rtree: flat snapshot nodes do not fit the page size")

// adopt makes c the mutable tree whose root is the image's decoded
// root. Node versions are immutable — a mutation copies what it
// changes — so the image stays what was decoded, and may be adopted
// again, for as long as anyone holds it. Size, depth and (for an
// R+-tree) the data MBR carry over.
func (f *FlatTree) adopt(c *core, pageSize int, name string, covering bool) error {
	if f.covering != covering {
		return fmt.Errorf("rtree: adopting a %s image as the other tree family", f.name)
	}
	st, err := newArena(pageSize)
	if err != nil {
		return err
	}
	if f.minCap > st.cap {
		return fmt.Errorf("%w: a node needs capacity %d, page size %d holds %d",
			ErrNodeCapacity, f.minCap, pageSize, st.cap)
	}
	if !covering {
		c.bounds, c.bounded = f.bounds, f.hasBound
	}
	c.start(st, name, covering, f.root, f.depth, f.size)
	return nil
}

// Adopt returns a mutable R-/R*-tree that is the image's tree: same
// nodes, same entry order, hence the same node accesses for every
// query — not a rebuild from its entries. It copies nothing. opts and
// name are the options the tree was built with, as for NewArena; they
// are not in the image.
func Adopt(f *FlatTree, pageSize int, opts Options, name string) (*Tree, error) {
	t := &Tree{opts: opts}
	if err := f.adopt(&t.core, pageSize, name, true); err != nil {
		return nil, err
	}
	return t, nil
}

// AdoptRPlus is Adopt for the image of an R+-tree.
func AdoptRPlus(f *FlatTree, pageSize int) (*RPlusTree, error) {
	t := &RPlusTree{}
	if err := f.adopt(&t.core, pageSize, rplusName, false); err != nil {
		return nil, err
	}
	return t, nil
}

// treeCore returns the core a *Tree or *RPlusTree embeds.
func (c *core) treeCore() *core { return c }

// NodesSharedWith counts the image's nodes that idx (a *Tree or
// *RPlusTree) still holds — a node of its published version with the
// same level, page cost and entries, whose children are such nodes too
// — out of total. Nodes are compared by content, so right after
// adoption that is every node, whether idx adopted this decode of the
// image or another one of the same bytes; each mutation replaces the
// nodes on the paths it touched. A tree rebuilt from the image's entries
// holds none.
func (f *FlatTree) NodesSharedWith(idx any) (shared, total int) {
	total = len(f.nodes)
	t, ok := idx.(interface{ treeCore() *core })
	if !ok {
		return 0, total
	}
	// Number each distinct subtree in post-order: a node's key is its
	// record with every child replaced by the child's number.
	numbers := map[string]uint64{}
	var visit func(n *node, each func(uint64)) uint64
	visit = func(n *node, each func(uint64)) uint64 {
		refs := make([]uint64, len(n.entries))
		for i := range n.entries {
			refs[i] = n.entries[i].OID
			if !n.isLeaf() {
				refs[i] = visit(n.entries[i].Child, each)
			}
		}
		key := string(appendRecord(nil, n, refs))
		id, ok := numbers[key]
		if !ok {
			id = uint64(len(numbers))
			numbers[key] = id
		}
		each(id)
		return id
	}
	held := map[uint64]int{}
	visit(t.treeCore().cur.Load().root, func(id uint64) { held[id]++ })
	visit(f.root, func(id uint64) {
		if held[id] > 0 {
			held[id]--
			shared++
		}
	})
	return shared, total
}
