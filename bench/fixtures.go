package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"mbrtopo/internal/geom"
	"mbrtopo/internal/index"
	"mbrtopo/internal/pagefile"
	"mbrtopo/internal/query"
	"mbrtopo/internal/retry"
	"mbrtopo/internal/rtree"
	"mbrtopo/internal/server"
	"mbrtopo/internal/shard"
	"mbrtopo/internal/topo"
	"mbrtopo/internal/wal"
	"mbrtopo/internal/watch"
	"mbrtopo/internal/workload"
)

// fixtures measures the layers a workload leans on outside the request
// path — set-up, checkpoints, fan-out — each through its public entry
// point, on the workload's own dataset.
func fixtures(p *plan, ip *inProcess, dir string, sc scale, res *result) error {
	switch p.name {
	case wWindow:
		return shardFixture(p, sc, res)
	case wTopo:
		return snapshotFixture(p, res)
	case wMixedRW:
		if err := snapshotFixture(p, res); err != nil {
			return err
		}
		if err := checkpointFixture(ip, res); err != nil {
			return err
		}
		if err := watchFixture(p, sc, res); err != nil {
			return err
		}
		return replFixture(dir, sc, res)
	}
	return nil
}

// repeatMS runs f n times and returns the median wall time in ms.
func repeatMS(n int, f func() error) (float64, error) {
	vals := make([]float64, n)
	for i := range vals {
		var err error
		_, d := timed(func() { err = f() })
		if err != nil {
			return 0, err
		}
		vals[i] = ms(d)
	}
	return median(vals), nil
}

// snapshotFixture times what a boot and a checkpoint are made of: the
// STR bulk load, encoding MBRFLAT1, and validating + opening it.
func snapshotFixture(p *plan, res *result) error {
	const reps = 5
	var idx index.Index
	var err error
	if res.Metrics["rtree.bulkload_ms"], err = repeatMS(reps, func() error {
		if idx, err = index.NewOnFile(index.KindRStar, pagefile.NewMemFile(index.PaperPageSize)); err != nil {
			return err
		}
		return index.LoadBulk(idx, p.items)
	}); err != nil {
		return err
	}
	var flat bytes.Buffer
	if res.Metrics["rtree.flat_encode_ms"], err = repeatMS(reps, func() error {
		flat.Reset()
		return index.WriteFlat(idx, &flat, 1)
	}); err != nil {
		return err
	}
	res.Metrics["rtree.flat_open_ms"], err = repeatMS(reps, func() error {
		_, err := rtree.OpenFlatBytes(flat.Bytes())
		return err
	})
	return err
}

// checkpointFixture times Instance.Checkpoint on the replayed durable
// instance: snapshot rewrite, flat publish, WAL rotation.
func checkpointFixture(ip *inProcess, res *result) error {
	var err error
	res.Metrics["server.checkpoint_ms"], err = repeatMS(3, ip.inst.Checkpoint)
	return err
}

// shardFixture runs window references through a 4-tile shard.Sharded
// router over the same objects. It records one point, not a scaling
// curve: with GOMAXPROCS this small, fan-out cannot buy wall time.
func shardFixture(p *plan, sc scale, res *result) error {
	const tiles = 4
	recs := make([]rtree.Record, len(p.items))
	for i, it := range p.items {
		recs[i] = rtree.Record{Rect: it.Rect, OID: it.OID}
	}
	var parts []index.Index
	for _, part := range rtree.STRPartition(recs, tiles) {
		items := make([]index.Item, len(part))
		for i, r := range part {
			items[i] = index.Item{Rect: r.Rect, OID: r.OID}
		}
		idx, err := index.NewPacked(index.KindRStar, index.PaperPageSize, items)
		if err != nil {
			return err
		}
		parts = append(parts, idx)
	}
	router := shard.New(parts...)
	proc := &query.Processor{Idx: router}
	vals := make([]float64, sc.fixtureOps)
	for i := range vals {
		rq := &p.streams[0][i%len(p.streams[0])]
		var err error
		_, d := timed(func() {
			_, err = proc.Stream(context.Background(), rq.rels, rq.ref, 0, func(query.Match) bool { return true })
		})
		if err != nil {
			return err
		}
		vals[i] = us(d)
	}
	rs := router.RouterStats()
	res.Metrics["shard.search_us"] = median(vals)
	res.Metrics["shard.tiles_pruned_frac"] = float64(rs.Pruned) / float64(rs.Pruned+rs.Searched)
	res.Samples["shard.search_us"] = len(vals)
	return nil
}

// watchFixture publishes mutations to a watch.Table holding 16
// subscriptions, wired the way server.newWatchTable wires it:
// publish_us is the write path's cost (Publish only enqueues),
// notify_p50_us the commit-to-notification latency the table reports.
func watchFixture(p *plan, sc scale, res *result) error {
	idx, err := index.NewPacked(index.KindRStar, index.PaperPageSize, p.items)
	if err != nil {
		return err
	}
	subIdx, err := index.NewWithPageSize(index.KindRTree, index.PaperPageSize)
	if err != nil {
		return err
	}
	all := func(geom.Rect) bool { return true }
	var mu sync.Mutex
	var notify []float64
	table := watch.NewTable(
		func(emit func(geom.Rect, uint64) bool) error { return idx.Search(all, all, emit) },
		subIdx,
		func(d time.Duration) { mu.Lock(); notify = append(notify, us(d)); mu.Unlock() },
	)
	defer table.Close("closed")
	for i := 0; i < 16; i++ {
		// A buffer the fixture cannot overrun: nobody drains the events.
		if _, err := table.Subscribe(p.streams[0][i].ref, topo.NotDisjoint, 2*sc.fixtureOps); err != nil {
			return err
		}
	}
	rng := rand.New(rand.NewSource(1))
	publish := make([]float64, sc.fixtureOps)
	for i := range publish {
		mut := watch.Mutation{Op: watch.OpInsert, OID: firstWriteOID + uint64(i), Rect: workload.RandomRect(rng, workload.Medium)}
		_, d := timed(func() { table.Publish(mut) })
		publish[i] = us(d)
		// One batch in flight at a time, as under one closed-loop writer.
		table.Sync()
	}
	mu.Lock()
	defer mu.Unlock()
	res.Metrics["watch.publish_us"] = median(publish)
	res.Metrics["watch.notify_p50_us"] = median(notify)
	res.Samples["watch.notify_p50_us"] = len(notify)
	return nil
}

// replFixture measures primary-commit → replica-visible over a live
// /v1/replicate stream: an in-process primary behind an httptest
// listener and an in-process follower, as replbench_test.go sets them
// up, with enough inserts for a median to mean something.
func replFixture(dir string, sc scale, res *result) error {
	spec := server.IndexSpec{Name: "main", Kind: index.KindRTree, PageSize: 512, Fsync: wal.SyncNever}
	primary := server.New(server.Config{})
	pspec := spec
	pspec.Dir = filepath.Join(dir, "repl-primary")
	pinst, err := primary.AddIndex(pspec, workload.NewDataset(workload.Medium, 1000, 0, 42).Items)
	if err != nil {
		return err
	}
	defer primary.Close()
	ts := httptest.NewServer(primary.Handler())
	defer ts.Close()

	follower := server.New(server.Config{})
	fspec := spec
	fspec.Dir, fspec.Follower = filepath.Join(dir, "repl-follower"), true
	finst, err := follower.AddIndex(fspec, nil)
	if err != nil {
		return err
	}
	defer follower.Close()
	if err := follower.Follow(server.FollowConfig{
		Primary:      ts.URL,
		Backoff:      retry.Policy{Base: time.Millisecond, Cap: 50 * time.Millisecond},
		StallTimeout: 2 * time.Second,
		Seed:         1,
	}); err != nil {
		return err
	}
	// Promote stops the follower loops so Close can release the files.
	defer follower.Promote()

	visible := func(r geom.Rect) error {
		deadline := time.Now().Add(30 * time.Second)
		for time.Now().Before(deadline) {
			if proc := finst.ReadProc(); proc != nil {
				if out, err := proc.QuerySetMBR(topo.NewSet(topo.Equal), r); err == nil && len(out.Matches) > 0 {
					return nil
				}
			}
			runtime.Gosched()
		}
		return fmt.Errorf("rect %v never became visible on the replica", r)
	}
	// Outside the dataset's world, so equality sees only these inserts.
	rect := func(i int) geom.Rect { return geom.R(6000+float64(i), 6000, 6002+float64(i), 6003) }
	if err := pinst.Insert(rect(-1), 1<<40); err != nil {
		return err
	}
	if err := visible(rect(-1)); err != nil {
		return err
	}
	vals := make([]float64, sc.fixtureOps)
	for i := range vals {
		start := time.Now()
		if err := pinst.Insert(rect(i), 1<<40+uint64(i)+1); err != nil {
			return err
		}
		if err := visible(rect(i)); err != nil {
			return err
		}
		vals[i] = us(time.Since(start))
	}
	res.Metrics["repl.visible_p50_us"] = median(vals)
	res.Samples["repl.visible_p50_us"] = len(vals)
	return nil
}
