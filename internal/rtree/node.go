// Package rtree implements the three MBR-based access methods the
// paper evaluates. A tree constructed over a page file stores its nodes
// on that simulated disk (package pagefile); one constructed without
// keeps them decoded in a node arena (arena.go) and charges the same
// page counts, so searches have a faithful disk-access count either
// way:
//
//   - the original R-tree (Guttman 1984) with quadratic or linear
//     node splitting,
//   - the R*-tree (Beckmann, Kriegel, Schneider, Seeger 1990) with
//     margin-driven splits and forced reinsertion,
//   - the R+-tree (Sellis, Roussopoulos, Faloutsos 1987), a
//     zero-overlap variant in which node regions partition space and
//     data rectangles spanning a partition boundary are registered in
//     several subtrees.
//
// All three expose the same search interface, parameterised by a node
// predicate and a leaf predicate, which is exactly what the paper's
// 4-step retrieval strategy needs (Table 2 relations for intermediate
// nodes, Table 1 configurations for leaf MBRs).
package rtree

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"mbrtopo/internal/geom"
	"mbrtopo/internal/pagefile"
)

// Entry is a node slot: a rectangle plus either a child page (internal
// nodes) or an object id (leaves). For R-trees and R*-trees the
// rectangle of an internal entry is the tight MBR of the child's
// subtree; for R+-trees it is the child's partition region.
type Entry struct {
	Rect geom.Rect
	// Child is the child page for internal entries, NilPage in leaves.
	Child pagefile.PageID
	// OID is the object identifier for leaf entries.
	OID uint64
}

// node is the in-memory image of one node. A node normally occupies a
// single page; R+-trees facing Greene's degeneracy (more than M
// mutually crossing rectangles in one partition region, where no cut
// line makes progress) spill onto chained overflow pages. chain lists
// the additional page ids; reading a chained node costs one page read
// per chain element, which the disk-access accounting reflects.
type node struct {
	id      pagefile.PageID   // page id, or arena slot id
	chain   []pagefile.PageID // overflow pages of a paged node (usually empty)
	level   int               // 0 = leaf
	entries []Entry

	// cost is the page-access cost an arena node carries (arena.go,
	// flat.go): what its paged counterpart costs to read. Zero for paged
	// nodes, where the chain says the same.
	cost uint32

	// The side-car of an arena leaf (text.go): its entries' rectangles
	// in wire form once earned, and the count of renderings consumers
	// have done themselves until then.
	rented atomic.Int32
	text   atomic.Pointer[leafText]

	// The side-car of an arena node a join has swept (join.go): its tight
	// MBR and its entries' low-x order.
	sweep atomic.Pointer[nodeSweep]
}

func (n *node) isLeaf() bool { return n.level == 0 }

// childRef returns the reference of the i-th child — a page id or an
// arena slot id — to pass back to the store the node came from.
func (n *node) childRef(i int) uint64 { return uint64(n.entries[i].Child) }

// accessCost is the number of page reads the paged representation of
// this node costs: 1 plus the overflow chain length. Arena nodes carry
// that number, so TraversalStats stay bit-identical across
// representations.
func (n *node) accessCost() uint64 {
	if n.cost != 0 {
		return uint64(n.cost)
	}
	return 1 + uint64(len(n.chain))
}

// mbr returns the tight bounding rectangle of the node's entries: kept
// beside a node version a join has swept, the union of the entries
// otherwise.
func (n *node) mbr() geom.Rect {
	if k := n.sweep.Load(); k != nil {
		return k.mbr
	}
	if len(n.entries) == 0 {
		return geom.Rect{}
	}
	r := n.entries[0].Rect
	for _, e := range n.entries[1:] {
		r = r.Union(e.Rect)
	}
	return r
}

// Page layout:
//
//	offset 0: level  (uint16, little endian)
//	offset 2: count  (uint16) — entries on THIS page
//	offset 4: next   (uint32) — overflow page, NilPage when none
//	offset 8: count × entry
//
// entry: minX minY maxX maxY (float64) + ref (uint64). For internal
// entries ref is the child page id; for leaf entries it is the OID.
const (
	nodeHeaderSize = 8
	entrySize      = 4*8 + 8
)

// CapacityForPageSize returns how many entries fit a page.
func CapacityForPageSize(pageSize int) int {
	return (pageSize - nodeHeaderSize) / entrySize
}

// store is where a tree keeps its nodes: on a page file (file set), or
// decoded in an arena (ar set, arena.go), decided where the tree is
// constructed — a caller that hands over a pagefile.File gets pages and
// their cost model, one that does not gets the arena. Page buffers come
// from a pool rather than a single shared slice, so any number of
// readers may decode pages at the same time.
type store struct {
	pageSpace
	file pagefile.File
	ar   *arena
	cap  int // maximum entries that fit a page
	bufs sync.Pool
}

func newStore(file pagefile.File) *store {
	pageSize := file.PageSize()
	return &store{
		pageSpace: file,
		file:      file,
		cap:       CapacityForPageSize(pageSize),
		bufs: sync.Pool{New: func() any {
			b := make([]byte, pageSize)
			return &b
		}},
	}
}

func (s *store) getBuf() *[]byte  { return s.bufs.Get().(*[]byte) }
func (s *store) putBuf(b *[]byte) { s.bufs.Put(b) }

func (s *store) allocNode(level int) (*node, error) {
	id, err := s.Alloc()
	if err != nil {
		return nil, err
	}
	return &node{id: id, level: level}, nil
}

// readNodeRef is the read path's view of a node — the traversal core
// (traverse.go), kNN (nearest.go) and the join engine (join.go) fetch
// nodes through it alone. ref is a page id or an arena slot id; 0 is
// never valid. On an arena the node is the shared version itself and
// must not be modified; on pages, a fresh decode.
func (s *store) readNodeRef(ref uint64) (*node, error) {
	if s.ar != nil {
		return s.ar.get(pagefile.PageID(ref))
	}
	return s.readNode(pagefile.PageID(ref))
}

// readNode returns a node the caller may modify and write back: the
// mutation paths' read.
func (s *store) readNode(id pagefile.PageID) (*node, error) {
	if s.ar != nil {
		return s.ar.checkOut(id, s.cap)
	}
	bp := s.getBuf()
	defer s.putBuf(bp)
	buf := *bp
	n := &node{id: id}
	pid := id
	for pid != pagefile.NilPage {
		if err := s.file.Read(pid, buf); err != nil {
			return nil, fmt.Errorf("rtree: reading node %d (page %d): %w", id, pid, err)
		}
		level := int(binary.LittleEndian.Uint16(buf[0:2]))
		count := int(binary.LittleEndian.Uint16(buf[2:4]))
		next := pagefile.PageID(binary.LittleEndian.Uint32(buf[4:8]))
		if nodeHeaderSize+count*entrySize > len(buf) {
			return nil, fmt.Errorf("rtree: page %d has corrupt count %d", pid, count)
		}
		if pid == id {
			n.level = level
		} else {
			n.chain = append(n.chain, pid)
		}
		off := nodeHeaderSize
		for i := 0; i < count; i++ {
			var e Entry
			e.Rect.Min.X = readF64(buf[off:])
			e.Rect.Min.Y = readF64(buf[off+8:])
			e.Rect.Max.X = readF64(buf[off+16:])
			e.Rect.Max.Y = readF64(buf[off+24:])
			ref := binary.LittleEndian.Uint64(buf[off+32:])
			if n.level > 0 {
				e.Child = pagefile.PageID(ref)
			} else {
				e.OID = ref
			}
			n.entries = append(n.entries, e)
			off += entrySize
		}
		pid = next
	}
	return n, nil
}

func (s *store) writeNode(n *node) error {
	if s.ar != nil {
		s.ar.install(n, s.cap)
		return nil
	}
	// Size the overflow chain to the entry count.
	need := (len(n.entries) + s.cap - 1) / s.cap
	if need < 1 {
		need = 1
	}
	for len(n.chain) < need-1 {
		id, err := s.file.Alloc()
		if err != nil {
			return err
		}
		n.chain = append(n.chain, id)
	}
	for len(n.chain) > need-1 {
		last := n.chain[len(n.chain)-1]
		n.chain = n.chain[:len(n.chain)-1]
		if err := s.file.Free(last); err != nil {
			return err
		}
	}
	pages := append([]pagefile.PageID{n.id}, n.chain...)
	rest := n.entries
	bp := s.getBuf()
	defer s.putBuf(bp)
	for pi, pid := range pages {
		take := len(rest)
		if take > s.cap {
			take = s.cap
		}
		next := pagefile.NilPage
		if pi+1 < len(pages) {
			next = pages[pi+1]
		}
		buf := (*bp)[:0]
		var hdr [nodeHeaderSize]byte
		binary.LittleEndian.PutUint16(hdr[0:2], uint16(n.level))
		binary.LittleEndian.PutUint16(hdr[2:4], uint16(take))
		binary.LittleEndian.PutUint32(hdr[4:8], uint32(next))
		buf = append(buf, hdr[:]...)
		for i := 0; i < take; i++ {
			e := &rest[i]
			buf = appendF64(buf, e.Rect.Min.X)
			buf = appendF64(buf, e.Rect.Min.Y)
			buf = appendF64(buf, e.Rect.Max.X)
			buf = appendF64(buf, e.Rect.Max.Y)
			ref := e.OID
			if n.level > 0 {
				ref = uint64(e.Child)
			}
			buf = binary.LittleEndian.AppendUint64(buf, ref)
		}
		if err := s.file.Write(pid, buf); err != nil {
			return err
		}
		rest = rest[take:]
	}
	return nil
}

func (s *store) freeNode(n *node) error {
	for _, pid := range n.chain {
		if err := s.Free(pid); err != nil {
			return err
		}
	}
	n.chain = nil
	return s.Free(n.id)
}

func readF64(b []byte) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(b))
}

func appendF64(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}
