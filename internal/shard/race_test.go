package shard

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mbrtopo/internal/geom"
	"mbrtopo/internal/index"
	"mbrtopo/internal/query"
	"mbrtopo/internal/rtree"
	"mbrtopo/internal/topo"
	"mbrtopo/internal/workload"
)

// The scatter-gather race test: concurrent single-record writers and
// bulk loaders mutate a sharded index while readers stream query and
// join results. Run under -race it proves the router adds no unlocked
// state; the assertions prove per-shard snapshot consistency (every
// tile-local bulk batch is visible all-or-nothing, because batch
// records share one rectangle and therefore one tile) and that the
// merged TraversalStats are the element-wise sum of the per-tile
// traversals.
func TestShardedScatterGatherRace(t *testing.T) {
	const (
		tilesN     = 4
		batchSize  = 8
		duration   = 300 * time.Millisecond
		numWriters = 2
		numLoaders = 2
		numReaders = 3
	)
	ds := workload.NewDataset(workload.Small, 500, 0, 21)
	s := buildSharded(t, index.KindRTree, ds.Items, tilesN)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	deadline := time.After(duration)
	go func() {
		<-deadline
		cancel()
	}()

	var (
		wg        sync.WaitGroup
		nextOID   atomic.Uint64 // single-record writer ids
		loaderSeq atomic.Uint64 // bulk batches: contiguous aligned blocks
		wmu       sync.Mutex    // writers are serialized, as the server's write lock does
	)
	nextOID.Store(1 << 20)
	const loaderBase = uint64(1) << 30

	// Single-record writers: insert, sometimes delete again.
	for w := 0; w < numWriters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			i := 0
			for ctx.Err() == nil {
				oid := nextOID.Add(1)
				r := geom.R(float64(10+(i*13)%900), float64(10+(i*29)%900), float64(20+(i*13)%900), float64(20+(i*29)%900))
				wmu.Lock()
				if err := s.Insert(r, oid); err != nil {
					wmu.Unlock()
					t.Errorf("writer %d: Insert: %v", w, err)
					return
				}
				if i%3 == 0 {
					if err := s.Delete(r, oid); err != nil {
						wmu.Unlock()
						t.Errorf("writer %d: Delete: %v", w, err)
						return
					}
				}
				wmu.Unlock()
				i++
			}
		}(w)
	}

	// Bulk loaders: every batch is batchSize records sharing one
	// rectangle, so the whole batch lands in one tile and must be
	// visible all-or-nothing to any reader.
	for l := 0; l < numLoaders; l++ {
		wg.Add(1)
		go func(l int) {
			defer wg.Done()
			b := 0
			for ctx.Err() == nil {
				base := loaderBase + loaderSeq.Add(batchSize) - batchSize
				x := float64(2000 + 100*l + b%50) // away from the writer range
				r := geom.R(x, x, x+5, x+5)
				recs := make([]rtree.Record, batchSize)
				for i := range recs {
					recs[i] = rtree.Record{Rect: r, OID: base + uint64(i)}
				}
				wmu.Lock()
				err := s.InsertBatch(recs)
				wmu.Unlock()
				if err != nil {
					t.Errorf("loader %d: InsertBatch: %v", l, err)
					return
				}
				b++
			}
		}(l)
	}

	// Readers: stream queries through the processor, check bulk-batch
	// atomicity and stats additivity, and run self-joins.
	for r := 0; r < numReaders; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			proc := &query.Processor{Idx: s}
			rels := topo.NewSet(topo.Overlap, topo.Inside, topo.CoveredBy, topo.Equal)
			for ctx.Err() == nil {
				// Window over the loader area: count per-batch visibility.
				counts := map[uint64]int{}
				_, err := proc.Stream(ctx, topo.FullSet().Minus(topo.NewSet(topo.Disjoint)),
					geom.R(1900, 1900, 2300, 2300), 0, func(m query.Match) bool {
						counts[(m.OID-loaderBase)/batchSize]++
						return true
					})
				if err != nil && ctx.Err() == nil {
					t.Errorf("reader %d: Stream: %v", r, err)
					return
				}
				if err == nil {
					for batch, n := range counts {
						if n != batchSize {
							t.Errorf("reader %d: torn bulk batch %d: saw %d of %d records", r, batch, n, batchSize)
							return
						}
					}
				}
				// Merged stats must equal the sum of the per-tile stats.
				perTile, merged, err := s.SearchTiles(ctx,
					func(geom.Rect) bool { return true },
					func(geom.Rect) bool { return true },
					func(rtree.Hit) bool { return true })
				if err != nil && ctx.Err() == nil {
					t.Errorf("reader %d: SearchTiles: %v", r, err)
					return
				}
				if err == nil {
					var sum rtree.TraversalStats
					for _, st := range perTile {
						sum = sum.Add(st)
					}
					if sum != merged {
						t.Errorf("reader %d: merged stats %+v != per-tile sum %+v", r, merged, sum)
						return
					}
				}
				// Self-join while tiles mutate underneath.
				_, err = query.JoinStream(ctx, s, s, rels, query.JoinOptions{Workers: 2},
					func(query.JoinPair) bool { return true })
				if err != nil && ctx.Err() == nil {
					t.Errorf("reader %d: JoinStream: %v", r, err)
					return
				}
			}
		}(r)
	}

	wg.Wait()

	// Quiesced: the routed view must still agree with a rebuilt oracle.
	var all []index.Item
	for ti, tl := range s.Tiles() {
		b, ok := tl.Bounds()
		if !ok {
			continue
		}
		err := tl.Search(func(geom.Rect) bool { return true }, func(geom.Rect) bool { return true },
			func(r geom.Rect, oid uint64) bool {
				if !b.ContainsRect(r) {
					t.Errorf("tile %d: member %v outside tile bounds %v", ti, r, b)
					return false
				}
				all = append(all, index.Item{Rect: r, OID: oid})
				return true
			})
		if err != nil {
			t.Fatalf("tile %d scan: %v", ti, err)
		}
	}
	if len(all) != s.Len() {
		t.Fatalf("scan found %d objects, Len reports %d", len(all), s.Len())
	}
	oracle := buildSingle(t, index.KindRTree, all)
	rels := topo.NewSet(topo.Overlap)
	for i, ref := range []geom.Rect{geom.R(0, 0, 500, 500), geom.R(1900, 1900, 2300, 2300)} {
		want := queryOIDs(t, oracle, rels, ref)
		got := queryOIDs(t, s, rels, ref)
		if !oidsEqual(got, want) {
			t.Fatalf("post-quiesce query %d: sharded %d oids, oracle %d", i, len(got), len(want))
		}
	}
}
