// Package index defines the access-method interface shared by the
// R-tree family and convenience constructors with the paper's
// experimental settings (page capacity 50, R-tree quadratic split with
// m = 40%, R*-tree with m = 40%, R+-tree with the minimal-split cost
// function).
package index

import (
	"context"
	"fmt"
	"io"
	"strings"

	"mbrtopo/internal/geom"
	"mbrtopo/internal/mbr"
	"mbrtopo/internal/pagefile"
	"mbrtopo/internal/rtree"
)

// TraversalStats is the per-traversal work accounting returned by
// SearchHits and NearestCtx: exact for the one traversal that produced
// it, no matter how many queries run concurrently (unlike IOStats,
// which aggregates globally across the whole tree).
type TraversalStats = rtree.TraversalStats

// Index is an MBR-based spatial access method charging the paper's
// disk accesses.
// Implementations are safe for concurrent use: searches run in
// parallel, mutations are exclusive among themselves.
type Index interface {
	// Insert stores a rectangle under an object id.
	Insert(r geom.Rect, oid uint64) error
	// InsertBatch stores a batch of rectangles as one atomic mutation:
	// queries see none or all of the batch, and a failed batch leaves
	// the index as it was. The R-/R*-trees Sort-Tile-Recursive pack the
	// batch when the tree is empty. An implementation neither modifies
	// nor retains recs.
	InsertBatch(recs []rtree.Record) error
	// Delete removes the entry with exactly this rectangle and id.
	Delete(r geom.Rect, oid uint64) error
	// SearchPreds is the one traversal: it descends into internal
	// entries whose rectangles pass node and hands emit, once per leaf,
	// the entries that pass leaf (rtree.Leaf), until emit returns false.
	// The tests are values (mbr.Pred): each entry meets a test's corner
	// window inline and calls only a probe behind it. An R+-tree hands
	// over a registration in every leaf its rectangle reaches
	// (rtree.Registrations sees it once). Context cancellation returns
	// ctx.Err() with the stats so far, and the IO accounting is exact per
	// traversal.
	SearchPreds(ctx context.Context, node, leaf mbr.Pred, emit func(rtree.Leaf) bool) (TraversalStats, error)
	// SearchHits is SearchPreds one hit at a time (rtree.PerHit), under
	// tests given as funcs; a hit can hand over its rectangle's wire text
	// (rtree.Hit.Text) to an emit that asks for it.
	SearchHits(ctx context.Context, nodePred, leafPred func(geom.Rect) bool, emit func(rtree.Hit) bool) (TraversalStats, error)
	// SearchCtx is SearchHits for an emit that takes the rectangle and
	// the object id, and Search is SearchCtx without context or stats.
	// Nothing in this module calls either any more; the bench/ module
	// does, and they go when it moves (ROADMAP item 1a).
	SearchCtx(ctx context.Context, nodePred, leafPred func(geom.Rect) bool, emit func(geom.Rect, uint64) bool) (TraversalStats, error)
	Search(nodePred, leafPred func(geom.Rect) bool, emit func(geom.Rect, uint64) bool) error
	// Len returns the number of stored (oid, rect) registrations, each
	// as many times as it was inserted and not deleted.
	Len() int
	// Height returns the number of levels.
	Height() int
	// Bounds returns the MBR of the stored rectangles.
	Bounds() (geom.Rect, bool)
	// Name identifies the access method.
	Name() string
	// CoveringNodeRects reports whether internal entry rectangles cover
	// all data rectangles stored beneath them (true for R-/R*-trees,
	// false for the partition-region R+-tree). Query processors select
	// the node predicate accordingly.
	CoveringNodeRects() bool
	// IOStats exposes the page counters (reads = the paper's disk
	// accesses).
	IOStats() pagefile.Stats
	// ResetIOStats zeroes the counters.
	ResetIOStats()
	// NearestCtx returns the k stored rectangles closest to p (best-first
	// branch-and-bound on MINDIST), with context cancellation and
	// per-traversal IO accounting.
	NearestCtx(ctx context.Context, p geom.Point, k int) ([]rtree.Neighbour, TraversalStats, error)
}

// Static interface checks.
var (
	_ Index = (*rtree.Tree)(nil)
	_ Index = (*rtree.RPlusTree)(nil)
)

// PaperPageSize is the page size giving the paper's node capacity of
// 50 entries (the serial baseline is then ⌈10000/50⌉ = 200 pages).
const PaperPageSize = 2008

// Kind selects an access method.
type Kind int

// The implemented access methods.
const (
	KindRTree Kind = iota
	KindRPlus
	KindRStar
)

func (k Kind) String() string {
	switch k {
	case KindRTree:
		return "R-tree"
	case KindRPlus:
		return "R+-tree"
	case KindRStar:
		return "R*-tree"
	}
	return fmt.Sprintf("index.Kind(%d)", int(k))
}

// ParseKind resolves a tree name, compared in lower case: "rtree" or
// "r", "rplus" or "r+", "rstar" or "r*".
func ParseKind(s string) (Kind, error) {
	switch strings.ToLower(s) {
	case "rtree", "r":
		return KindRTree, nil
	case "rplus", "r+":
		return KindRPlus, nil
	case "rstar", "r*":
		return KindRStar, nil
	}
	return 0, fmt.Errorf("unknown tree %q", s)
}

// AllKinds returns the three access methods in the paper's order.
func AllKinds() []Kind { return []Kind{KindRTree, KindRPlus, KindRStar} }

// paperOptions returns the paper's experimental settings for a
// covering-rectangle kind: quadratic split for the R-tree; R* subtree
// choice, margin-driven split and forced reinsertion for the R*-tree
// (m = 40% for both). The R+-tree has no options.
func paperOptions(kind Kind) rtree.Options {
	if kind == KindRStar {
		return rtree.Options{Split: rtree.SplitRStar, RStarChooseSubtree: true, ForcedReinsert: true}
	}
	return rtree.Options{Split: rtree.SplitQuadratic}
}

// New creates an index of the given kind with the paper's settings,
// held in memory.
func New(kind Kind) (Index, error) { return NewWithPageSize(kind, PaperPageSize) }

// NewWithPageSize creates an in-memory index with a specific page
// size: the tree keeps its nodes decoded (rtree.NewArena) and charges
// node accesses at that page size's capacity.
func NewWithPageSize(kind Kind, pageSize int) (Index, error) {
	return newArena(kind, pageSize, kind.String())
}

func newArena(kind Kind, pageSize int, name string) (Index, error) {
	switch kind {
	case KindRTree, KindRStar:
		return rtree.NewArena(pageSize, paperOptions(kind), name)
	case KindRPlus:
		return rtree.NewRPlusArena(pageSize)
	}
	return nil, fmt.Errorf("index: unknown kind %v", kind)
}

// Item is a rectangle with its object id: the record InsertBatch
// takes, so a slice of items is handed to it as it is.
type Item = rtree.Record

// Load bulk-inserts items into the index one by one (the build the
// paper's experiments use).
func Load(idx Index, items []Item) error {
	for _, it := range items {
		if err := idx.Insert(it.Rect, it.OID); err != nil {
			return fmt.Errorf("index: loading oid %d: %w", it.OID, err)
		}
	}
	return nil
}

// LoadBulk loads items through InsertBatch: on an empty R-/R*-tree the
// batch is Sort-Tile-Recursive packed — each level ordered by a bucket
// pass over its centres in expected linear time, no per-insert splits —
// which is the fast path for building a large index from a data file at
// startup.
func LoadBulk(idx Index, items []Item) error {
	if err := idx.InsertBatch(items); err != nil {
		return fmt.Errorf("index: bulk loading %d items: %w", len(items), err)
	}
	return nil
}

// NewOnFile is NewWithPageSize at the file's page size. Only
// bench/fixtures.go calls it (scripts/bench.pins).
func NewOnFile(kind Kind, file *pagefile.MemFile) (Index, error) {
	return NewWithPageSize(kind, file.PageSize())
}

// packedSuffix marks the name of a tree NewPacked built.
const packedSuffix = "/packed"

// NewPacked bulk-loads items into a fresh Sort-Tile-Recursive packed
// in-memory tree. Only the covering-rectangle variants support
// packing; KindRPlus returns an error.
func NewPacked(kind Kind, pageSize int, items []Item) (Index, error) {
	if kind == KindRPlus {
		return nil, fmt.Errorf("index: the R+-tree has no STR packing (partition build differs)")
	}
	idx, err := newArena(kind, pageSize, kind.String()+packedSuffix)
	if err != nil {
		return nil, err
	}
	if err := LoadBulk(idx, items); err != nil {
		return nil, err
	}
	return idx, nil
}

// Adopt turns a validated checkpoint image into the mutable in-memory
// tree it was taken from — the one way saved bytes become an index
// again. The tree shares the image's nodes (see rtree.Adopt), so it
// answers every query with the node accesses the saved tree had. An
// image of another kind is refused (NewPacked's "/packed" name suffix
// is the same kind); one written under a page size whose nodes do not
// fit pageSize fails with rtree.ErrNodeCapacity.
func Adopt(kind Kind, pageSize int, flat *rtree.FlatTree) (Index, error) {
	if name := flat.Name(); name != kind.String() && name != kind.String()+packedSuffix {
		return nil, fmt.Errorf("index: the image holds a %s, not a %s", name, kind)
	}
	switch kind {
	case KindRTree, KindRStar:
		return rtree.Adopt(flat, pageSize, paperOptions(kind), flat.Name())
	case KindRPlus:
		return rtree.AdoptRPlus(flat, pageSize)
	}
	return nil, fmt.Errorf("index: unknown kind %v", kind)
}

// PinFlat pins the index's currently published version for writing in
// the flat snapshot format (see rtree.FlatImage), tagged with the given
// checkpoint generation; rtree.OpenFlat and Adopt bring it back.
func PinFlat(idx Index, gen uint64) (*rtree.FlatImage, error) {
	t, ok := idx.(interface{ PinFlat(uint64) *rtree.FlatImage })
	if !ok {
		return nil, fmt.Errorf("index: cannot write a flat snapshot of %T", idx)
	}
	return t.PinFlat(gen), nil
}

// WriteFlat writes the image PinFlat pins.
func WriteFlat(idx Index, w io.Writer, gen uint64) error {
	im, err := PinFlat(idx, gen)
	if err != nil {
		return err
	}
	return im.Encode(w)
}

// SerialPages returns the disk accesses of a serial scan of a data
// file with n rectangles at the given page capacity — the paper's
// baseline of 200 pages for 10,000 rectangles at 50 per page.
func SerialPages(n, capacity int) int {
	if capacity <= 0 {
		return 0
	}
	return (n + capacity - 1) / capacity
}
