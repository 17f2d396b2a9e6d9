// Package shard partitions one logical index into Sort-Tile-Recursive
// tiles and runs an independent index instance per tile. It is a
// bench-only fixture: bench/fixtures.go measures it in-process, and
// nothing the service serves uses it — topod serves one tree per index,
// and the join refuses a router (query.CanJoin wants an *rtree.Tree a
// side). It goes with that fixture (ROADMAP item 1a).
//
// The Sharded router implements index.Index, so the query processor
// works unchanged on top of it: searches fan out to only the tiles
// whose MBRs can satisfy the node predicate, kNN runs a global best-k
// merge with a shared pruning radius, and mutations are routed to
// exactly one tile (single assignment — an object lives in one tile
// only, so tile trees stay disjoint).
package shard

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"mbrtopo/internal/geom"
	"mbrtopo/internal/index"
	"mbrtopo/internal/pagefile"
	"mbrtopo/internal/rtree"
)

// Sharded routes index operations across STR tiles. It implements
// index.Index; reads are safe for any concurrency, mutations follow
// the same contract as the underlying trees (the caller serializes
// writers, as the server's write lock does).
type Sharded struct {
	tiles []index.Index

	searched atomic.Uint64 // tiles traversed by queries/kNN
	pruned   atomic.Uint64 // tiles eliminated by the router
}

var _ index.Index = (*Sharded)(nil)

// New builds a router over the tile indexes, which it holds for good:
// a tile changes through its own mutations, never by being replaced.
func New(tiles ...index.Index) *Sharded {
	if len(tiles) == 0 {
		panic("shard: need at least one tile")
	}
	return &Sharded{tiles: tiles}
}

// Tiles returns the tile indexes, in tile order. The slice is the
// router's own: read it, do not modify it.
func (s *Sharded) Tiles() []index.Index { return s.tiles }

// RouterStats is the scatter-gather accounting since startup.
type RouterStats struct {
	Tiles    int
	Searched uint64 // tile traversals started
	Pruned   uint64 // tile traversals skipped by the router
}

// RouterStats returns the fan-out counters.
func (s *Sharded) RouterStats() RouterStats {
	return RouterStats{
		Tiles:    len(s.tiles),
		Searched: s.searched.Load(),
		Pruned:   s.pruned.Load(),
	}
}

// Route picks the tile an insert of r belongs to: the tile whose
// bounds grow least (the super-root analogue of ChooseSubtree), ties
// broken by fewer stored objects and then by tile order, so empty
// tiles fill before established tiles are stretched.
func (s *Sharded) Route(r geom.Rect) int {
	tiles := s.Tiles()
	best, bestEnl, bestLen := 0, -1.0, 0
	for i, t := range tiles {
		enl := 0.0
		if b, ok := t.Bounds(); ok {
			enl = b.Enlarge(r)
		}
		n := t.Len()
		if bestEnl < 0 || enl < bestEnl || (enl == bestEnl && n < bestLen) {
			best, bestEnl, bestLen = i, enl, n
		}
	}
	return best
}

// Insert routes the rectangle to one tile.
func (s *Sharded) Insert(r geom.Rect, oid uint64) error {
	return s.Tiles()[s.Route(r)].Insert(r, oid)
}

// Delete removes the entry from whichever tile holds it. Tile bounds
// always cover their members, so only tiles whose bounds contain the
// rectangle are tried.
func (s *Sharded) Delete(r geom.Rect, oid uint64) error {
	for _, t := range s.Tiles() {
		b, ok := t.Bounds()
		if !ok || !b.ContainsRect(r) {
			continue
		}
		switch err := t.Delete(r, oid); {
		case err == nil:
			return nil
		case errors.Is(err, rtree.ErrNotFound):
			continue
		default:
			return err
		}
	}
	return rtree.ErrNotFound
}

// RouteBatch splits a batch into per-tile batches: a Sort-Tile-
// Recursive partition when every tile is still empty (the bulk load
// that establishes the tiling), per-record routing afterwards. The
// result always has one entry per tile; empty slices mean the
// tile receives nothing.
func (s *Sharded) RouteBatch(recs []rtree.Record) [][]rtree.Record {
	tiles := s.Tiles()
	empty := true
	for _, t := range tiles {
		if t.Len() > 0 {
			empty = false
			break
		}
	}
	if empty {
		return rtree.STRPartition(recs, len(tiles))
	}
	parts := make([][]rtree.Record, len(tiles))
	for _, r := range recs {
		i := s.Route(r.Rect)
		parts[i] = append(parts[i], r)
	}
	return parts
}

// InsertBatch routes the batch (STR partition on first load) and
// applies the per-tile batches in parallel. Each tile applies its
// share atomically; the batch as a whole is not atomic across tiles —
// a concurrent reader may see some tiles' share before others'.
func (s *Sharded) InsertBatch(recs []rtree.Record) error {
	parts := s.RouteBatch(recs)
	tiles := s.Tiles()
	errs := make([]error, len(tiles))
	var wg sync.WaitGroup
	for i, part := range parts {
		if len(part) == 0 {
			continue
		}
		wg.Add(1)
		go func(i int, part []rtree.Record) {
			defer wg.Done()
			errs[i] = tiles[i].InsertBatch(part)
		}(i, part)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// Len returns the total number of stored objects across tiles.
func (s *Sharded) Len() int {
	n := 0
	for _, t := range s.Tiles() {
		n += t.Len()
	}
	return n
}

// Height returns the tallest tile's height.
func (s *Sharded) Height() int {
	h := 0
	for _, t := range s.Tiles() {
		if th := t.Height(); th > h {
			h = th
		}
	}
	return h
}

// Bounds returns the union of the tile bounds.
func (s *Sharded) Bounds() (geom.Rect, bool) {
	var out geom.Rect
	any := false
	for _, t := range s.Tiles() {
		b, ok := t.Bounds()
		if !ok {
			continue
		}
		if !any {
			out, any = b, true
		} else {
			out = out.Union(b)
		}
	}
	return out, any
}

// Name identifies the router and its tile access method.
func (s *Sharded) Name() string {
	return fmt.Sprintf("sharded[%d] %s", len(s.tiles), s.tiles[0].Name())
}

// CoveringNodeRects reports the tile access method's node semantics
// (all tiles share one kind).
func (s *Sharded) CoveringNodeRects() bool { return s.tiles[0].CoveringNodeRects() }

// IOStats sums the tile page-file counters.
func (s *Sharded) IOStats() pagefile.Stats {
	var out pagefile.Stats
	for _, t := range s.Tiles() {
		st := t.IOStats()
		out.Reads += st.Reads
		out.Writes += st.Writes
		out.Allocs += st.Allocs
		out.Frees += st.Frees
	}
	return out
}

// ResetIOStats zeroes every tile's counters.
func (s *Sharded) ResetIOStats() {
	for _, t := range s.Tiles() {
		t.ResetIOStats()
	}
}
