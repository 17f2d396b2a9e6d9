// Package mbrtopo is a library for retrieving topological relations
// between region objects from MBR-based spatial access methods,
// reproducing Papadias, Theodoridis, Sellis and Egenhofer,
// "Topological Relations in the World of Minimum Bounding Rectangles:
// A Study with R-trees", SIGMOD 1995.
//
// The library provides:
//
//   - the eight 9-intersection relations between contiguous regions
//     (disjoint, meet, equal, overlap, contains, inside, covers,
//     covered_by) with converse and composition (package topo);
//   - exact polygon-level relation computation — the refinement step
//     (package geom);
//   - the 169 projection relations between MBRs and the filter-step
//     machinery: candidate sets, intermediate-node propagation,
//     refinement-free configurations, conceptual-neighbourhood
//     expansion for non-crisp MBRs (packages interval, mbr);
//   - three access methods with disk-access accounting — R-tree,
//     R+-tree, R*-tree — on a simulated page file or, in memory, on a
//     decoded node arena charging the same page reads (packages rtree,
//     pagefile, index);
//   - a query processor implementing the paper's 4-step strategy,
//     disjunctive queries, and two-reference conjunctions with
//     composition-based empty-result detection (package query).
//
// Quick start:
//
//	idx, _ := mbrtopo.NewRStar()
//	store := mbrtopo.MapStore{}
//	// ... store[oid] = polygon; idx.Insert(polygon.Bounds(), oid)
//	proc := &mbrtopo.Processor{Idx: idx, Objects: store}
//	res, _ := proc.Query(mbrtopo.Covers, region)
//
// Queries are safe to run concurrently against one index, each with
// exact per-query statistics. The streaming API delivers matches as
// the traversal finds them and stops early on demand:
//
//	for m, err := range proc.Matches(ctx, mbrtopo.NewSet(mbrtopo.Overlap), ref, 10) {
//		if err != nil {
//			break
//		}
//		use(m)
//	}
//
// (iter.Pull2 turns the same iterator into a next/stop pair for
// pull-style consumers.)
package mbrtopo

import (
	"fmt"
	"io"

	"mbrtopo/internal/direction"
	"mbrtopo/internal/geom"
	"mbrtopo/internal/index"
	"mbrtopo/internal/mbr"
	"mbrtopo/internal/query"
	"mbrtopo/internal/rtree"
	"mbrtopo/internal/topo"
)

// Geometry types.
type (
	// Point is a point in the plane.
	Point = geom.Point
	// Rect is an axis-aligned rectangle (an MBR).
	Rect = geom.Rect
	// Polygon is a simple polygon modelling a contiguous region.
	Polygon = geom.Polygon
	// MultiPolygon is a non-contiguous region ("a country with
	// islands", the paper's Section 7 extension).
	MultiPolygon = geom.MultiPolygon
	// Region abstracts contiguous and non-contiguous regions.
	Region = geom.Region
	// PolyLine is a simple open polyline (linear data, Section 7).
	PolyLine = geom.PolyLine
	// LineRegionRelation names a line-against-region relation.
	LineRegionRelation = geom.LineRegionRelation
	// PointLocation classifies a point against a region.
	PointLocation = geom.PointLocation
)

// The line-region relations (Section 7 linear data).
const (
	LRDisjoint   = geom.LRDisjoint
	LRTouch      = geom.LRTouch
	LRCross      = geom.LRCross
	LRWithin     = geom.LRWithin
	LRCoveredBy  = geom.LRCoveredBy
	LROnBoundary = geom.LROnBoundary
)

// The point-location outcomes.
const (
	PointOutside    = geom.PointOutside
	PointOnBoundary = geom.PointOnBoundary
	PointInside     = geom.PointInside
)

// Relation algebra types.
type (
	// Relation is one of the eight mt2 topological relations.
	Relation = topo.Relation
	// RelationSet is a disjunction of relations.
	RelationSet = topo.Set
	// ProjectionConfig is one of the 169 MBR projection relations.
	ProjectionConfig = mbr.Config
)

// Access-method and query types.
type (
	// Index is an MBR-based spatial access method.
	Index = index.Index
	// IndexKind selects an access method.
	IndexKind = index.Kind
	// Item is a rectangle plus object id for bulk loading.
	Item = index.Item
	// Processor executes topological queries.
	Processor = query.Processor
	// Result bundles matches and statistics.
	Result = query.Result
	// Match is one answer.
	Match = query.Match
	// QueryStats reports filter and refinement work.
	QueryStats = query.Stats
	// TraversalStats is the exact per-traversal work accounting of the
	// concurrent execution engine (Index.SearchCtx, NearestCtx, joins).
	TraversalStats = index.TraversalStats
	// ObjectStore resolves object ids to regions for refinement.
	ObjectStore = query.ObjectStore
	// MapStore is an in-memory ObjectStore over simple polygons.
	MapStore = query.MapStore
	// RegionStore is an in-memory ObjectStore over arbitrary regions.
	RegionStore = query.RegionStore
	// LineStore is an in-memory store of polylines for line queries.
	LineStore = query.LineStore
)

// The eight topological relations of the 9-intersection model.
const (
	Disjoint  = topo.Disjoint
	Meet      = topo.Meet
	Equal     = topo.Equal
	Overlap   = topo.Overlap
	Contains  = topo.Contains
	Inside    = topo.Inside
	Covers    = topo.Covers
	CoveredBy = topo.CoveredBy
)

// The access-method kinds.
const (
	KindRTree = index.KindRTree
	KindRPlus = index.KindRPlus
	KindRStar = index.KindRStar
)

// Common low-resolution relations (Section 5 of the paper).
var (
	// In is the cadastral "in": inside ∨ covered_by.
	In = topo.In
	// NotDisjoint is the traditional window-query relation.
	NotDisjoint = topo.NotDisjoint
)

// R constructs a rectangle from its corner coordinates.
func R(minX, minY, maxX, maxY float64) Rect { return geom.R(minX, minY, maxX, maxY) }

// NewSet builds a relation disjunction.
func NewSet(rs ...Relation) RelationSet { return topo.NewSet(rs...) }

// ParseRelation maps a relation name to its Relation.
func ParseRelation(s string) (Relation, error) { return topo.ParseRelation(s) }

// Relate computes the exact topological relation between two
// contiguous regions (the refinement step).
func Relate(p, q Polygon) Relation { return geom.Relate(p, q) }

// RelateRegions computes the exact topological relation between two
// regions that may be non-contiguous.
func RelateRegions(p, q Region) Relation { return geom.RelateRegions(p, q) }

// RelateLineRegion classifies a polyline against a region, returning
// the named relation (the 9-intersection matrix is available from the
// geometry layer).
func RelateLineRegion(l PolyLine, r Region) LineRegionRelation {
	rel, _ := geom.RelateLineRegion(l, r)
	return rel
}

// RelatePointRegion classifies a point against a region.
func RelatePointRegion(p Point, r Region) PointLocation {
	return geom.RelatePointRegion(p, r)
}

// RelateRects computes the topological relation between two rectangles
// viewed as regions.
func RelateRects(p, q Rect) Relation { return mbr.RelateRects(p, q) }

// ConfigOf classifies the projection relation of two MBRs (one of the
// paper's 169 configurations).
func ConfigOf(p, q Rect) ProjectionConfig { return mbr.ConfigOf(p, q) }

// Compose returns the possible relations between a and c given
// rel(a,b) and rel(b,c) (Egenhofer's composition).
func Compose(r1, r2 Relation) RelationSet { return topo.Compose(r1, r2) }

// Network is a topological constraint network over region variables;
// PathConsistency closes it under composition, detecting inconsistent
// scene descriptions (Egenhofer & Sharma 1993).
type Network = topo.Network

// NewNetwork creates a constraint network of n region variables.
func NewNetwork(n int) *Network { return topo.NewNetwork(n) }

// NewRTree creates an in-memory R-tree (Guttman, quadratic split,
// m=40%) charging node accesses at the paper's 50-entry pages.
func NewRTree() (Index, error) { return index.New(index.KindRTree) }

// NewRPlus creates an R+-tree (Sellis et al., minimal-split cost).
func NewRPlus() (Index, error) { return index.New(index.KindRPlus) }

// NewRStar creates an R*-tree (Beckmann et al., m=40%, forced
// reinsertion).
func NewRStar() (Index, error) { return index.New(index.KindRStar) }

// NewIndex creates an access method of the given kind and page size.
func NewIndex(kind IndexKind, pageSize int) (Index, error) {
	return index.NewWithPageSize(kind, pageSize)
}

// Load inserts items into an index one by one.
func Load(idx Index, items []Item) error { return index.Load(idx, items) }

// NewPackedIndex bulk-loads a static data set with Sort-Tile-Recursive
// packing (R-tree and R*-tree kinds).
func NewPackedIndex(kind IndexKind, pageSize int, items []Item) (Index, error) {
	return index.NewPacked(kind, pageSize, items)
}

// SaveIndex writes the index as one checksummed MBRFLAT1 image — the
// format topod checkpoints in. The published version is pinned while it
// is written, so searches and writers carry on beside it.
func SaveIndex(idx Index, w io.Writer) error { return index.WriteFlat(idx, w, 0) }

// OpenIndex reads an image written by SaveIndex back as a mutable
// in-memory index: the saved tree node for node, so every query costs
// the node accesses it cost before the save. kind and pageSize are the
// ones the index was created with; corrupted bytes fail the image's
// checksums with an error, never with wrong answers.
func OpenIndex(kind IndexKind, pageSize int, r io.Reader) (Index, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("mbrtopo: reading index image: %w", err)
	}
	flat, err := rtree.OpenFlatBytes(data)
	if err != nil {
		return nil, err
	}
	return index.Adopt(kind, pageSize, flat)
}

// Neighbour is one k-nearest-neighbour answer.
type Neighbour = rtree.Neighbour

// DirectionRelation is a projection-based direction relation between
// MBRs (the companion-paper machinery; use Processor.QueryDirection).
type DirectionRelation = direction.Relation

// The nine direction tiles and four strict refinements.
const (
	DirSouthWest   = direction.SouthWest
	DirSouth       = direction.South
	DirSouthEast   = direction.SouthEast
	DirWest        = direction.West
	DirSameLevel   = direction.SameLevel
	DirEast        = direction.East
	DirNorthWest   = direction.NorthWest
	DirNorth       = direction.North
	DirNorthEast   = direction.NorthEast
	DirStrictNorth = direction.StrictNorth
	DirStrictSouth = direction.StrictSouth
	DirStrictEast  = direction.StrictEast
	DirStrictWest  = direction.StrictWest
)

// DirectionTile classifies the primary MBR into one of the nine tiles
// around the reference MBR.
func DirectionTile(p, q Rect) DirectionRelation { return direction.Tile(p, q) }

// Spatial joins.
type (
	// JoinPair is one result of a topological spatial join.
	JoinPair = query.JoinPair
	// JoinResult bundles join pairs with statistics.
	JoinResult = query.JoinResult
	// JoinOptions configure JoinTopological.
	JoinOptions = query.JoinOptions
)

// JoinTopological finds all object pairs across two R-/R*-tree indexes
// standing in one of the given relations, by synchronized traversal
// with configuration-based pruning.
func JoinTopological(left, right Index, rels RelationSet, opts JoinOptions) (JoinResult, error) {
	return query.JoinTopological(left, right, rels, opts)
}
