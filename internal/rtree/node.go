// Package rtree implements the three MBR-based access methods the
// paper evaluates. A tree keeps its nodes decoded in memory, children
// by pointer, and its node arena (arena.go) charges every node access
// the pages the node would fill at the tree's page size, so searches
// have a faithful disk-access count:
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
	"sync/atomic"

	"mbrtopo/internal/geom"
)

// Entry is a node's entry: a rectangle plus either a child node
// (internal nodes) or an object id (leaves). For R-trees and R*-trees
// the rectangle of an internal entry is the tight MBR of the child's
// subtree; for R+-trees it is the child's partition region.
type Entry struct {
	Rect geom.Rect
	// Child is the child node of an internal entry, nil in leaves.
	Child *node
	// OID is the object identifier for leaf entries.
	OID uint64
}

// node is one version of a node. A node normally fills a single page;
// R+-trees facing Greene's degeneracy (more than M mutually crossing
// rectangles in one partition region, where no cut line makes
// progress) keep more entries than a page holds, and reading such a
// node costs one page read per page its entries fill, which the
// disk-access accounting reflects.
type node struct {
	level   int // 0 = leaf
	entries []Entry

	// cost is the number of page reads the node costs, 1 plus its
	// overflow pages (pagesFor): set when the node is installed
	// (arena.go) or decoded (flat.go).
	cost uint32

	// stamp is the stamp of the mutation that created the node while
	// that mutation runs (core.track), so the node changes in place;
	// any other value once it is published, dropped or rolled back.
	stamp uint64

	// The side-car of a leaf (text.go): its entries' rectangles in wire
	// form once earned, and the count of renderings consumers have done
	// themselves until then.
	rented atomic.Int32
	text   atomic.Pointer[leafText]

	// The side-car of a node a join has swept (join.go): its tight MBR
	// and its entries' low-x order.
	sweep atomic.Pointer[nodeSweep]
}

func (n *node) isLeaf() bool { return n.level == 0 }

// mbr returns the tight bounding rectangle of the node's entries: kept
// beside a node version a join has swept, the union of the entries
// otherwise.
func (n *node) mbr() geom.Rect {
	if k := n.sweep.Load(); k != nil {
		return k.mbr
	}
	return n.union()
}

// union computes the tight bounding rectangle of the node's entries.
func (n *node) union() geom.Rect {
	if len(n.entries) == 0 {
		return geom.Rect{}
	}
	r := n.entries[0].Rect
	for _, e := range n.entries[1:] {
		r = r.Union(e.Rect)
	}
	return r
}

// A page holds an 8-byte node header and 40 bytes per entry: minX minY
// maxX maxY (float64) and a uint64 reference, the child for internal
// entries and the OID for leaf entries. An MBRFLAT1 record (flat.go)
// lays a node out the same way.
const (
	nodeHeaderSize = 8
	entrySize      = 4*8 + 8
)

// CapacityForPageSize returns how many entries fit a page.
func CapacityForPageSize(pageSize int) int {
	return (pageSize - nodeHeaderSize) / entrySize
}
