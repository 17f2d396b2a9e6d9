package server

import (
	"fmt"
	"sync"
	"testing"

	"mbrtopo/internal/geom"
	"mbrtopo/internal/index"
	"mbrtopo/internal/rtree"
	"mbrtopo/internal/topo"
	"mbrtopo/internal/wal"
	"mbrtopo/internal/workload"
)

// bulkOID addresses one rectangle of one writer's batch with a flat
// id, disjoint from the seed OIDs (1..seedN).
func bulkOID(writer, batch, i int) uint64 {
	return uint64(1_000_000 + writer*100_000 + batch*1_000 + i)
}

// TestBulkSnapshotConsistency is the batched-write consistency check:
// batched writers and a deleter mutate a durable index while readers
// query it, and every query must see a consistent snapshot — a state
// the index actually passed through, equal to the ground truth of some
// acked mutation prefix — never a half-applied batch. Concretely each
// observed answer must be (seed minus a contiguous deleted prefix)
// plus a set of complete batches respecting each writer's batch order.
// Run under -race this exercises the COW snapshot machinery end to end
// through the server's durable mutation path.
func TestBulkSnapshotConsistency(t *testing.T) {
	const (
		seedN   = 150
		writers = 2
		batches = 10 // per writer
		batchB  = 20
		deletes = 100
		readers = 3
	)
	d := workload.NewDataset(workload.Medium, seedN, 0, 11)
	srv := New(Config{})
	defer srv.Close()
	inst, err := srv.AddIndex(IndexSpec{
		Name: "main", Kind: index.KindRTree, PageSize: 512,
		Dir: t.TempDir(), Fsync: wal.SyncNever,
	}, d.Items)
	if err != nil {
		t.Fatal(err)
	}

	// Deterministic batch contents so readers can recognise them.
	src := workload.NewDataset(workload.Medium, writers*batches*batchB, 0, 23)
	batchRecs := make([][][]rtree.Record, writers)
	batchOf := make(map[uint64][2]int) // bulk OID → (writer, batch)
	k := 0
	for w := 0; w < writers; w++ {
		batchRecs[w] = make([][]rtree.Record, batches)
		for b := 0; b < batches; b++ {
			recs := make([]rtree.Record, batchB)
			for i := 0; i < batchB; i++ {
				recs[i] = rtree.Record{Rect: src.Items[k].Rect, OID: bulkOID(w, b, i)}
				batchOf[recs[i].OID] = [2]int{w, b}
				k++
			}
			batchRecs[w][b] = recs
		}
	}

	world := geom.R(-1, -1, 1001, 1001)
	stop := make(chan struct{})
	errc := make(chan error, writers+readers+1)
	var mutators, observers sync.WaitGroup

	for w := 0; w < writers; w++ {
		mutators.Add(1)
		go func(w int) {
			defer mutators.Done()
			for b := 0; b < batches; b++ {
				if err := inst.InsertBatch(batchRecs[w][b]); err != nil {
					errc <- fmt.Errorf("writer %d batch %d: %w", w, b, err)
					return
				}
			}
		}(w)
	}
	mutators.Add(1)
	go func() {
		defer mutators.Done()
		for oid := 1; oid <= deletes; oid++ {
			it := d.Items[oid-1]
			if err := inst.Delete(it.Rect, it.OID); err != nil {
				errc <- fmt.Errorf("delete oid %d: %w", oid, err)
				return
			}
		}
	}()

	for r := 0; r < readers; r++ {
		observers.Add(1)
		go func() {
			defer observers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				res, err := inst.ReadProc().QuerySetMBR(topo.NotDisjoint, world)
				if err != nil {
					errc <- err
					return
				}
				seen := make(map[uint64]bool, len(res.Matches))
				for _, m := range res.Matches {
					seen[m.OID] = true
				}
				counts := make(map[[2]int]int)
				minSeed, maxSeed := uint64(seedN+1), uint64(0)
				for oid := range seen {
					if wb, ok := batchOf[oid]; ok {
						counts[wb]++
						continue
					}
					if oid < 1 || oid > seedN {
						errc <- fmt.Errorf("query saw invented oid %d", oid)
						return
					}
					if oid > maxSeed {
						maxSeed = oid
					}
					if oid < minSeed {
						minSeed = oid
					}
				}
				// Batch atomicity: every batch is all-or-nothing.
				for wb, n := range counts {
					if n != batchB {
						errc <- fmt.Errorf("writer %d batch %d visible partially: %d of %d rects", wb[0], wb[1], n, batchB)
						return
					}
				}
				// Writer order: batch b visible ⇒ batches 0..b-1 visible.
				for wb := range counts {
					for b := 0; b < wb[1]; b++ {
						if counts[[2]int{wb[0], b}] == 0 {
							errc <- fmt.Errorf("writer %d batch %d visible before batch %d", wb[0], wb[1], b)
							return
						}
					}
				}
				// Deleter order: seed OIDs die lowest-first, so the
				// survivors are a contiguous suffix ending at seedN.
				if maxSeed != 0 {
					gap := false
					for oid := minSeed; oid <= maxSeed; oid++ {
						if !seen[oid] {
							gap = true
						}
					}
					if gap || maxSeed != seedN {
						errc <- fmt.Errorf("seed survivors not a contiguous suffix: min %d max %d", minSeed, maxSeed)
						return
					}
				}
			}
		}()
	}

	mutators.Wait()
	close(stop)
	observers.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}

	// Final state equals the ground truth of the full acked history,
	// over every durability window.
	var acked []wal.Record
	for w := 0; w < writers; w++ {
		for b := 0; b < batches; b++ {
			for _, r := range batchRecs[w][b] {
				acked = append(acked, wal.Record{Op: wal.OpInsert, OID: r.OID, Rect: r.Rect})
			}
		}
	}
	for oid := 1; oid <= deletes; oid++ {
		it := d.Items[oid-1]
		acked = append(acked, wal.Record{Op: wal.OpDelete, OID: it.OID, Rect: it.Rect})
	}
	assertSameAnswers(t, "after concurrent bulk load", inst.ReadIndex(), groundTruth(t, d.Items, acked))
}
