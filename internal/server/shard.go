package server

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"

	"mbrtopo/internal/index"
	"mbrtopo/internal/rtree"
	"mbrtopo/internal/shard"
	"mbrtopo/internal/wal"
)

// This file is the serving side of tile sharding: a parent Instance
// that owns N per-tile sub-instances. Each tile is a full ordinary
// instance — its own tree, checkpoint image and WAL under the shared
// data directory (Name.t<i>.*), recovered independently by the
// machinery in durable.go, untouched. The parent serves reads through
// a shard.Sharded router over the tiles' trees; its mutate only routes
// — into the mutate of the tile(s) concerned — and then publishes on its
// own watch table.

// tileName names tile i of a sharded index.
func tileName(name string, i int) string { return fmt.Sprintf("%s.t%d", name, i) }

// detectTiles inspects a data directory for an existing tile layout of
// the named index and returns the tile count (0 when none). The
// highest tile ordinal wins, so a layout with a missing middle tile
// still boots every tile (the missing one fresh and empty, which is
// at least visible, rather than silently dropped).
func detectTiles(dir, name string) int {
	count := 0
	for _, pattern := range []string{name + ".t*.flat", name + ".t*.wal.*"} {
		matches, _ := filepath.Glob(filepath.Join(dir, pattern))
		for _, m := range matches {
			// name.t<i>.flat or name.t<i>.wal.<gen>
			rest, _ := strings.CutPrefix(filepath.Base(m), name+".t")
			ordinal, _, _ := strings.Cut(rest, ".")
			if i, err := strconv.Atoi(ordinal); err == nil && i >= 0 && i+1 > count {
				count = i + 1
			}
		}
	}
	return count
}

// hasSingleSnapshot reports whether the directory holds an unsharded
// checkpoint of the named index.
func hasSingleSnapshot(dir, name string) bool {
	_, err := os.Stat(filepath.Join(dir, name+".flat"))
	return err == nil
}

// addSharded builds a sharded instance: STR-partitions the initial
// items across the tiles, builds each tile through the ordinary
// instance path (durable when spec.Dir is set — items are ignored per
// tile when that tile recovers existing state), and registers one
// parent routing across them. Tiles are not registered by name; they
// are reached through the parent only.
func (s *Server) addSharded(spec IndexSpec, shards int, items []index.Item) (*Instance, error) {
	recs := make([]rtree.Record, len(items))
	for i, it := range items {
		recs[i] = rtree.Record{Rect: it.Rect, OID: it.OID}
	}
	parts := rtree.STRPartition(recs, shards)

	parent := &Instance{Name: spec.Name, Kind: spec.Kind, backend: "sharded"}
	tiles := make([]*Instance, shards)
	trees := make([]index.Index, shards)
	closeBuilt := func() {
		for _, t := range tiles {
			if t != nil {
				_ = t.Close()
			}
		}
	}
	for i := range tiles {
		tspec := spec
		tspec.Name = tileName(spec.Name, i)
		tspec.Shards = 0
		tileItems := make([]index.Item, len(parts[i]))
		for j, r := range parts[i] {
			tileItems[j] = index.Item{Rect: r.Rect, OID: r.OID}
		}
		t, err := s.buildInstance(tspec, tileItems)
		if err != nil {
			closeBuilt()
			return nil, fmt.Errorf("server: index %q tile %d: %w", spec.Name, i, err)
		}
		tiles[i] = t
		trees[i] = t.ReadIndex()
	}
	parent.tiles = tiles
	parent.router = shard.New(trees...)
	for _, t := range tiles {
		if t.Recovered {
			parent.Recovered = true
		}
		parent.Replayed += t.Replayed
	}
	// The router assumes every tile has a tree; a tile that failed
	// recovery has none. Leave the parent's read view unset in that case
	// — ReadIndex returns nil and the routes answer 503, the same
	// contract as a single index that failed recovery.
	allHealthy := true
	for _, t := range tiles {
		if !t.Healthy() || t.ReadIndex() == nil {
			allHealthy = false
			break
		}
	}
	if allHealthy {
		parent.serve(parent.router)
	}
	return s.register(parent)
}

// route is the tree step of a sharded parent's mutate (which holds the
// parent's lock, so routing decisions and watch publication keep apply
// order): each tile's own mutate applies, logs and group-commits its
// share. An insert goes to the tile the router picks. A delete tries
// the tiles whose bounds cover the entry — tile bounds always cover
// their members. A batch is split across tiles (STR partition while all
// are empty, routed afterwards) and the shares applied in parallel,
// each atomic on its tile; the batch is not atomic across tiles.
func (inst *Instance) route(recs []wal.Record) error {
	if len(recs) > 1 {
		batch, err := insertBatchOf(recs)
		if err != nil {
			return err
		}
		parts := inst.router.RouteBatch(batch)
		errs := make([]error, len(parts))
		var wg sync.WaitGroup
		for i, part := range parts {
			if len(part) == 0 {
				continue
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[i] = inst.tiles[i].InsertBatch(part)
			}()
		}
		wg.Wait()
		return errors.Join(errs...)
	}
	rec := recs[0]
	if rec.Op == wal.OpInsert {
		return inst.tiles[inst.router.Route(rec.Rect)].mutate(recs, nil)
	}
	for _, t := range inst.tiles {
		idx := t.ReadIndex()
		if idx == nil {
			continue
		}
		if b, ok := idx.Bounds(); !ok || !b.ContainsRect(rec.Rect) {
			continue
		}
		if err := t.mutate(recs, nil); !errors.Is(err, rtree.ErrNotFound) {
			return err
		}
	}
	return rtree.ErrNotFound
}

// statInstances expands sharded parents into their tiles for the
// per-index metric walks: tiles are unregistered, but their WAL,
// health and backend numbers are real observability.
func (s *Server) statInstances() []*Instance {
	var out []*Instance
	for _, inst := range s.listInstances() {
		out = append(out, inst)
		out = append(out, inst.tiles...)
	}
	return out
}

// registerShardMetrics adds the router fan-out families of the sharded
// indexes.
func (s *Server) registerShardMetrics() {
	family := func(name, help, typ string, value func(shard.RouterStats) any) {
		s.metrics.collect(name, help, typ, func(emit emitFunc) {
			for _, inst := range s.listInstances() {
				if inst.router != nil {
					emit(value(inst.router.RouterStats()), "index", inst.Name)
				}
			}
		})
	}
	family("topod_shard_tiles", "STR tiles behind the sharded index.", "gauge",
		func(rs shard.RouterStats) any { return rs.Tiles })
	family("topod_shard_tile_searches_total", "Tiles the router actually fanned a read out to.", "counter",
		func(rs shard.RouterStats) any { return rs.Searched })
	family("topod_shard_tile_prunes_total", "Tiles eliminated before traversal by the MBR feasibility test on tile bounds.", "counter",
		func(rs shard.RouterStats) any { return rs.Pruned })
}
