package rtree

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"mbrtopo/internal/pagefile"
)

// This file is the second representation behind the store seam: a
// decoded, in-memory node arena. A tree constructed without a page
// file (NewArena, NewRPlusArena, Adopt) keeps its nodes here instead of
// encoding them onto simulated pages, so an access on the read path is
// a slot lookup — no page copy, no decode, no allocation.
//
// A slot points at one immutable node version. writeNode installs a
// fresh version (its own copy of the entries); nothing ever modifies an
// installed version's entries, so the *node a reader gets from
// readNodeRef can be shared by any number of traversals. Mutation paths
// read a private copy (readNode) and install the result. Slot ids play
// the part of page ids: snapshot.go's shadow/retire/reclaim protocol
// runs over them unchanged, which is what keeps a slot from being
// repointed while any pinned snapshot can still reach it. What a
// version gains after it is installed are its two side-cars — the wire
// text of a leaf's rectangles (text.go) and the sweep order and MBR a
// join keeps (join.go) — which are derived from the entries alone, hang
// off the version itself and go when the version does.
//
// The arena charges what the paged representation would: a node costs
// 1 + its overflow pages at the configured capacity (node.cost), reads
// sum that cost, and the write/alloc/free counters move by the same
// page counts — TraversalStats and IOStats are bit-identical to a
// paged tree given the same operations.
type arena struct {
	// tab is the slot table, indexed by slot id (0 is never a valid
	// id; nil is a free slot). It always has len == cap; growing swaps
	// in a larger copy, so a reader holding the old table keeps seeing
	// every node its snapshot can reach.
	tab atomic.Pointer[[]*node]

	// mu guards next, free and every write to the table. Readers never
	// take it.
	mu   sync.Mutex
	next pagefile.PageID // lowest never-allocated slot
	free []pagefile.PageID

	reads, writes, allocs, frees atomic.Uint64
}

const arenaMinSlots = 64

// pageSpace is what a store uses of a page file whichever way its
// nodes are held: id allocation and the page counters. A pagefile.File
// is one; so is the arena, whose slot ids stand in for page ids.
type pageSpace interface {
	Alloc() (pagefile.PageID, error)
	Free(pagefile.PageID) error
	Stats() pagefile.Stats
	ResetStats()
}

// newArenaStore returns a store over an arena holding tab's nodes in
// slots 1..next-1, charging costs at the node capacity of pageSize.
func newArenaStore(pageSize int, tab []*node, next pagefile.PageID) *store {
	a := &arena{next: next}
	a.tab.Store(&tab)
	return &store{pageSpace: a, ar: a, cap: CapacityForPageSize(pageSize)}
}

// pagesFor is the number of pages a node with count entries occupies
// at the given capacity: one, plus its overflow chain.
func pagesFor(count, capacity int) uint32 {
	if count <= capacity {
		return 1
	}
	return uint32((count + capacity - 1) / capacity)
}

// get returns the shared, immutable node version in a slot, charging
// its cost to the read counter. Lock-free and allocation-free.
func (a *arena) get(id pagefile.PageID) (*node, error) {
	tab := *a.tab.Load()
	if int(id) >= len(tab) || tab[id] == nil {
		return nil, fmt.Errorf("rtree: reading node %d: %w", id, pagefile.ErrPageNotFound)
	}
	n := tab[id]
	a.reads.Add(uint64(n.cost))
	return n, nil
}

// checkOut returns a private copy of a slot's node for a mutation path
// to modify and install, with room for the one entry an insertion adds
// before it splits.
func (a *arena) checkOut(id pagefile.PageID, capacity int) (*node, error) {
	shared, err := a.get(id)
	if err != nil {
		return nil, err
	}
	entries := make([]Entry, len(shared.entries), max(len(shared.entries), capacity)+1)
	copy(entries, shared.entries)
	return &node{id: id, level: shared.level, entries: entries, cost: shared.cost}, nil
}

// reserved is what an allocated slot points at until its first install:
// an empty one-page node, as a freshly allocated page reads.
var reserved = &node{cost: 1}

// Alloc reserves a slot, reusing freed ids first (as a page file does).
func (a *arena) Alloc() (pagefile.PageID, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	tab := *a.tab.Load()
	var id pagefile.PageID
	if n := len(a.free); n > 0 {
		id = a.free[n-1]
		a.free = a.free[:n-1]
	} else {
		id = a.next
		a.next++
		if int(id) == len(tab) {
			grown := make([]*node, 2*len(tab))
			copy(grown, tab)
			tab = grown
			a.tab.Store(&tab)
		}
	}
	tab[id] = reserved
	a.allocs.Add(1)
	return id, nil
}

// install makes a copy of n the current version of its slot. The
// version it replaces is left as it was, side-cars and all, for whoever
// still holds it.
func (a *arena) install(n *node, capacity int) {
	v := &node{id: n.id, level: n.level, entries: slices.Clone(n.entries),
		cost: pagesFor(len(n.entries), capacity)}
	a.mu.Lock()
	tab := *a.tab.Load()
	old := tab[n.id].cost
	tab[n.id] = v
	a.mu.Unlock()
	a.writes.Add(uint64(v.cost))
	// The overflow chain grows or shrinks with the entry count.
	if v.cost > old {
		a.allocs.Add(uint64(v.cost - old))
	} else {
		a.frees.Add(uint64(old - v.cost))
	}
}

// Free releases a slot and drops its node version.
func (a *arena) Free(id pagefile.PageID) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	tab := *a.tab.Load()
	if int(id) >= len(tab) || tab[id] == nil {
		return fmt.Errorf("rtree: freeing node %d: %w", id, pagefile.ErrPageNotFound)
	}
	a.frees.Add(uint64(tab[id].cost))
	tab[id] = nil
	a.free = append(a.free, id)
	return nil
}

func (a *arena) Stats() pagefile.Stats {
	return pagefile.Stats{
		Reads:  a.reads.Load(),
		Writes: a.writes.Load(),
		Allocs: a.allocs.Load(),
		Frees:  a.frees.Load(),
	}
}

func (a *arena) ResetStats() {
	a.reads.Store(0)
	a.writes.Store(0)
	a.allocs.Store(0)
	a.frees.Store(0)
}

// ErrNodeCapacity is returned by Adopt and AdoptRPlus for an image
// written under another page size: some node does not fit the page
// cost recorded for it at the capacity asked for, so charging that cost
// would misstate what a paged tree of this page size reads. The entries
// are still good — rebuild a tree from them instead.
var ErrNodeCapacity = errors.New("rtree: flat snapshot nodes do not fit the page size")

// adoptStore opens the image's nodes as the arena of a mutable tree.
// Only the slot table is new: every slot starts out pointing at the
// image's own node version. Node versions are immutable — the tree
// repoints slots, never their contents — so the image stays what was
// decoded, and may be adopted again, for as long as anyone holds it.
func (f *FlatTree) adoptStore(pageSize int, covering bool) (*store, error) {
	capacity := CapacityForPageSize(pageSize)
	if capacity < 4 {
		return nil, fmt.Errorf("rtree: page size %d too small (capacity %d)", pageSize, capacity)
	}
	if f.covering != covering {
		return nil, fmt.Errorf("rtree: adopting a %s image as the other tree family", f.name)
	}
	if f.minCap > capacity {
		return nil, fmt.Errorf("%w: a node needs capacity %d, page size %d holds %d",
			ErrNodeCapacity, f.minCap, pageSize, capacity)
	}
	tab := make([]*node, max(arenaMinSlots, 2*(len(f.nodes)+1)))
	for i := range f.nodes {
		tab[i+1] = &f.nodes[i]
	}
	return newArenaStore(pageSize, tab, pagefile.PageID(len(f.nodes)+1)), nil
}

// Adopt returns a mutable R-/R*-tree that is the image's tree: same
// nodes, same entry order, hence the same node accesses for every
// query — not a rebuild from its entries. It costs one slot-table copy,
// O(nodes); size and depth carry over. opts and name are the options
// the tree was built with, as for NewArena; they are not in the image.
func Adopt(f *FlatTree, pageSize int, opts Options, name string) (*Tree, error) {
	st, err := f.adoptStore(pageSize, true)
	if err != nil {
		return nil, err
	}
	t := &Tree{st: st, opts: opts, name: name,
		root: pagefile.PageID(f.root), depth: f.depth, size: f.size}
	t.initSnapshot()
	return t, nil
}

// AdoptRPlus is Adopt for the image of an R+-tree.
func AdoptRPlus(f *FlatTree, pageSize int) (*RPlusTree, error) {
	st, err := f.adoptStore(pageSize, false)
	if err != nil {
		return nil, err
	}
	return &RPlusTree{st: st,
		root: pagefile.PageID(f.root), depth: f.depth, size: f.size,
		bounds: f.bounds, bounded: f.hasBound}, nil
}

// NodesSharedWith counts the image's nodes that idx (a *Tree or
// *RPlusTree) still holds — the slot a node was decoded into serves a
// version of the same level, page cost and entries — out of total.
// Right after adoption that is every node, whether idx adopted this
// decode of the image or another one of the same bytes; each mutation
// replaces the versions on the paths it touched. A tree rebuilt from
// the image's entries holds none.
func (f *FlatTree) NodesSharedWith(idx any) (shared, total int) {
	var st *store
	switch t := idx.(type) {
	case *Tree:
		st = t.st
	case *RPlusTree:
		st = t.st
	}
	total = len(f.nodes)
	if st == nil || st.ar == nil {
		return 0, total
	}
	st.ar.mu.Lock()
	defer st.ar.mu.Unlock()
	tab := *st.ar.tab.Load()
	for i := range f.nodes {
		if i+1 >= len(tab) || tab[i+1] == nil {
			continue
		}
		held, n := tab[i+1], &f.nodes[i]
		if held.level == n.level && held.cost == n.cost && slices.Equal(held.entries, n.entries) {
			shared++
		}
	}
	return shared, total
}
