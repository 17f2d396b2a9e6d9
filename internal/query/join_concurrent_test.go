package query

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"mbrtopo/internal/geom"
	"mbrtopo/internal/index"
	"mbrtopo/internal/rtree"
	"mbrtopo/internal/topo"
	"mbrtopo/internal/workload"
)

// This file is the join half of the snapshot-consistency story (run it
// with -race): a join pins one published snapshot of each tree, so
// however many batched writers and deleters churn the right index
// while the join runs, every observed batch is all-or-nothing and the
// per-join statistics stay exact.

// TestJoinSnapshotConsistency: the left index holds one rectangle
// covering the whole workspace, so a not_disjoint join returns exactly
// the right tree's current contents — which makes snapshot atomicity
// directly observable: each writer batch must appear in a join result
// either completely or not at all. Churn items inserted and deleted
// individually run alongside to keep page shadowing busy.
func TestJoinSnapshotConsistency(t *testing.T) {
	world := workload.World()
	left, err := index.NewWithPageSize(index.KindRStar, 512)
	if err != nil {
		t.Fatal(err)
	}
	if err := left.Insert(world, 1); err != nil {
		t.Fatal(err)
	}
	right, err := index.NewWithPageSize(index.KindRStar, 512)
	if err != nil {
		t.Fatal(err)
	}

	const (
		writers      = 2
		batchesPer   = 8
		batchSize    = 40
		churnItems   = 120
		churnOIDBase = 1 << 20
	)
	rels := topo.NotDisjoint

	var wg sync.WaitGroup
	var writersDone atomic.Bool
	// Batched writers: batch (w, b) holds OIDs [base, base+batchSize).
	batchBase := func(w, b int) uint64 { return uint64(1000*(w*batchesPer+b) + 1) }
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for b := 0; b < batchesPer; b++ {
				base := batchBase(w, b)
				recs := make([]rtree.Record, batchSize)
				for i := range recs {
					// Keep every rectangle inside the workspace: a batch
					// item outside it would be disjoint from the left
					// rectangle and invisible to the join.
					x := float64(((w*batchesPer+b)*101 + i*7) % 900)
					y := float64(((w*batchesPer + b) * 211 % 900) + i)
					recs[i] = rtree.Record{Rect: geom.R(x, y, x+2, y+2), OID: base + uint64(i)}
				}
				if err := right.InsertBatch(recs); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	// Churn: individual inserts chased by a deleter (not batch-atomic,
	// so the invariant below ignores their OID range).
	churnRects := make([]geom.Rect, churnItems)
	churnReady := make(chan int, churnItems)
	wg.Add(2)
	go func() {
		defer wg.Done()
		defer close(churnReady)
		for i := 0; i < churnItems; i++ {
			r := geom.R(float64(i%800)+50, float64((i*37)%800)+50, float64(i%800)+53, float64((i*37)%800)+53)
			churnRects[i] = r
			if err := right.Insert(r, churnOIDBase+uint64(i)); err != nil {
				t.Error(err)
				return
			}
			churnReady <- i
		}
	}()
	go func() {
		defer wg.Done()
		for i := range churnReady {
			if err := right.Delete(churnRects[i], churnOIDBase+uint64(i)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		wg.Wait()
		writersDone.Store(true)
	}()

	checkJoin := func(final bool) {
		res, err := JoinTopological(left, right, rels, JoinOptions{Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.Candidates != len(res.Pairs) {
			t.Fatalf("stats say %d candidates, join returned %d pairs", res.Stats.Candidates, len(res.Pairs))
		}
		perBatch := map[uint64]int{}
		for _, p := range res.Pairs {
			if p.LeftOID != 1 {
				t.Fatalf("pair with unknown left OID %d", p.LeftOID)
			}
			if p.RightOID >= churnOIDBase {
				continue
			}
			perBatch[(p.RightOID-1)/1000]++
		}
		for batch, n := range perBatch {
			if n != batchSize {
				t.Fatalf("join observed %d of batch %d's %d rectangles: batches must be all-or-nothing",
					n, batch, batchSize)
			}
		}
		if final {
			if want := writers * batchesPer; len(perBatch) != want {
				t.Fatalf("final join saw %d complete batches, want %d", len(perBatch), want)
			}
		}
	}
	for !writersDone.Load() {
		checkJoin(false)
	}
	checkJoin(true)
}

// TestJoinCancellationPrompt: cancelling the context mid-join stops
// page reads promptly — the partial statistics stay well below a full
// run's — on both the filter-only and the refined pipeline.
func TestJoinCancellationPrompt(t *testing.T) {
	lStore, _, lIdx := joinScenario(t, 41, 600)
	rStore, _, rIdx := joinScenario(t, 42, 600)
	rels := topo.NotDisjoint

	full, err := JoinTopological(lIdx, rIdx, rels, JoinOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Pairs) < 100 {
		t.Fatalf("scenario too sparse (%d pairs) for a meaningful cancellation test", len(full.Pairs))
	}

	for _, opts := range []JoinOptions{
		{Workers: 4},
		{Workers: 4, LeftObjects: lStore, RightObjects: rStore},
	} {
		ctx, cancel := context.WithCancel(context.Background())
		n := 0
		stats, err := JoinStream(ctx, lIdx, rIdx, rels, opts, func(JoinPair) bool {
			if n++; n == 5 {
				cancel()
			}
			return true
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled join returned %v, want context.Canceled", err)
		}
		if stats.NodeAccesses == 0 || stats.NodeAccesses >= full.Stats.NodeAccesses {
			t.Fatalf("cancelled join read %d pages (full run %d); want a strict partial read",
				stats.NodeAccesses, full.Stats.NodeAccesses)
		}
	}
}
