package server

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"mbrtopo/internal/geom"
	"mbrtopo/internal/index"
	"mbrtopo/internal/rtree"
	"mbrtopo/internal/shard"
	"mbrtopo/internal/wal"
	"mbrtopo/internal/watch"
)

// This file is the serving side of tile sharding: a parent Instance
// that owns N per-tile sub-instances. Each tile is a full ordinary
// instance — its own tree, checkpoint image and WAL under the shared
// data directory (Name.t<i>.*), recovered independently by the
// machinery in durable.go, untouched. The parent serves reads through
// a shard.Sharded router over the tiles' current read views and routes
// mutations to exactly one tile under its write lock.

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
			var i int
			var rest string
			base := filepath.Base(m)
			if n, _ := fmt.Sscanf(base, name+".t%d%s", &i, &rest); n >= 1 && i >= 0 && i+1 > count {
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

	parent := &Instance{
		Name:    spec.Name,
		Kind:    spec.Kind,
		Frames:  spec.Frames,
		backend: "sharded",
	}
	tiles := make([]*Instance, shards)
	fns := make([]func() index.Index, shards)
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
		fns[i] = t.ReadIndex
	}
	parent.tiles = tiles
	parent.router = shard.NewFunc(fns)
	for _, t := range tiles {
		if t.Recovered {
			parent.Recovered = true
		}
		parent.Replayed += t.Replayed
	}
	// The router assumes every tile accessor yields a tree; a tile that
	// failed recovery has none. Leave the parent's read view unset in
	// that case — ReadIndex returns nil and the routes answer 503, the
	// same contract as a single index that failed recovery.
	allHealthy := true
	for _, t := range tiles {
		if !t.Healthy() || t.ReadIndex() == nil {
			allHealthy = false
			break
		}
	}
	if allHealthy {
		parent.serve(parent.router, nil)
	}
	parent.watch = s.newWatchTable(parent)

	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.instances[spec.Name]; dup {
		closeBuilt()
		return nil, fmt.Errorf("server: duplicate index %q", spec.Name)
	}
	s.instances[spec.Name] = parent
	if s.defaultName == "" {
		s.defaultName = spec.Name
	}
	return parent, nil
}

// shardInsert routes one insert to its tile. The parent's write lock
// serialises routing with other parent-level writers and keeps watch
// publication in apply order; the tile's own durable path logs and
// group-commits the record as usual.
func (inst *Instance) shardInsert(r geom.Rect, oid uint64) error {
	inst.wmu.Lock()
	defer inst.wmu.Unlock()
	i := inst.router.Route(r)
	if err := inst.tiles[i].Insert(r, oid); err != nil {
		return err
	}
	inst.notifyWatch(wal.OpInsert, r, oid)
	return nil
}

// shardDelete finds the tile holding the entry (tile bounds always
// cover their members, so only covering tiles are tried) and deletes
// there.
func (inst *Instance) shardDelete(r geom.Rect, oid uint64) error {
	inst.wmu.Lock()
	defer inst.wmu.Unlock()
	for _, t := range inst.tiles {
		idx := t.ReadIndex()
		if idx == nil {
			continue
		}
		b, ok := idx.Bounds()
		if !ok || !b.ContainsRect(r) {
			continue
		}
		switch err := t.Delete(r, oid); {
		case err == nil:
			inst.notifyWatch(wal.OpDelete, r, oid)
			return nil
		case errors.Is(err, rtree.ErrNotFound):
			continue
		default:
			return err
		}
	}
	return rtree.ErrNotFound
}

// shardInsertBatch splits the batch across tiles (STR partition while
// all tiles are empty, routed afterwards) and applies the per-tile
// shares in parallel — each share is one atomic tile mutation and one
// WAL group commit on that tile. The batch is not atomic across tiles.
func (inst *Instance) shardInsertBatch(recs []rtree.Record) error {
	inst.wmu.Lock()
	defer inst.wmu.Unlock()
	parts := inst.router.RouteBatch(recs)
	errs := make([]error, len(parts))
	var wg sync.WaitGroup
	for i, part := range parts {
		if len(part) == 0 {
			continue
		}
		wg.Add(1)
		go func(i int, part []rtree.Record) {
			defer wg.Done()
			errs[i] = inst.tiles[i].InsertBatch(part)
		}(i, part)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return err
	}
	if inst.watchActive() {
		muts := make([]watch.Mutation, len(recs))
		for i, rec := range recs {
			muts[i] = watch.Mutation{Op: watch.OpInsert, OID: rec.OID, Rect: rec.Rect}
		}
		inst.watch.Publish(muts...)
	}
	return nil
}

// statInstances expands sharded parents into their tiles for the
// per-index metric walks: tiles are unregistered, but their WAL,
// pool, health and backend counters are real observability.
func (s *Server) statInstances() []*Instance {
	var out []*Instance
	for _, inst := range s.listInstances() {
		out = append(out, inst)
		out = append(out, inst.tiles...)
	}
	return out
}

// ShardStat is one sharded index's router counters for /metrics.
type ShardStat struct {
	Index    string
	Tiles    int
	Searched uint64
	Pruned   uint64
}

// shardStats snapshots router fan-out counters for the /metrics
// exposition.
func (s *Server) shardStats() []ShardStat {
	var out []ShardStat
	for _, inst := range s.listInstances() {
		if inst.router == nil {
			continue
		}
		rs := inst.router.RouterStats()
		out = append(out, ShardStat{
			Index:    inst.Name,
			Tiles:    rs.Tiles,
			Searched: rs.Searched,
			Pruned:   rs.Pruned,
		})
	}
	return out
}
