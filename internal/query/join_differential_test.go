package query

import (
	"context"
	"fmt"
	"iter"
	"runtime"
	"testing"

	"mbrtopo/internal/index"
	"mbrtopo/internal/topo"
	"mbrtopo/internal/workload"
)

// This file is the differential gate for the sweep/parallel join: on
// uniform and clustered workloads, across R-tree and R*-tree, for
// every relation of mt2 plus a non-contiguous set, the parallel sweep
// join and the serial join must both produce exactly the pair set that
// per-object QuerySetMBR loops produce — and the parallel run's
// statistics must equal the serial run's.

func buildJoinIndex(t *testing.T, kind index.Kind, items []index.Item) index.Index {
	t.Helper()
	idx, err := index.NewWithPageSize(kind, 512)
	if err != nil {
		t.Fatal(err)
	}
	if err := index.Load(idx, items); err != nil {
		t.Fatal(err)
	}
	return idx
}

// joinPairSet collects a result's pairs, failing on duplicates.
func joinPairSet(t *testing.T, label string, pairs []JoinPair) map[pairKey]bool {
	t.Helper()
	set := make(map[pairKey]bool, len(pairs))
	for _, p := range pairs {
		k := pairKey{p.LeftOID, p.RightOID}
		if set[k] {
			t.Fatalf("%s: duplicate pair %v", label, k)
		}
		set[k] = true
	}
	return set
}

func samePairSet(t *testing.T, label string, want, got map[pairKey]bool) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d pairs, want %d", label, len(got), len(want))
	}
	for k := range want {
		if !got[k] {
			t.Fatalf("%s: missing pair %v", label, k)
		}
	}
}

// groundTruthJoin derives the join answer from per-object queries: for
// every right item, the left index is queried with the right rectangle
// as reference (the join's accept is cands.Has(ConfigOf(left, right)),
// which is exactly QuerySetMBR's leaf test with ref = the right rect).
func groundTruthJoin(t *testing.T, leftIdx index.Index, rightItems []index.Item, rels topo.Set, nonContig bool) map[pairKey]bool {
	t.Helper()
	p := &Processor{Idx: leftIdx, NonContiguous: nonContig}
	out := map[pairKey]bool{}
	for _, it := range rightItems {
		res, err := p.QuerySetMBR(rels, it.Rect)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range res.Matches {
			out[pairKey{m.OID, it.OID}] = true
		}
	}
	return out
}

func TestJoinDifferential(t *testing.T) {
	workloads := []struct {
		name  string
		items func(n int, seed int64) []index.Item
	}{
		{"uniform", func(n int, seed int64) []index.Item {
			return workload.NewDataset(workload.Small, n, 0, seed).Items
		}},
		{"clustered", func(n int, seed int64) []index.Item {
			return workload.ClusteredDataset(workload.Small, n, 0, 8, seed).Items
		}},
	}
	relSets := []struct {
		name      string
		rels      topo.Set
		nonContig bool
	}{{"noncontig-meet", topo.NewSet(topo.Meet), true}}
	for _, rel := range topo.All() {
		relSets = append(relSets, struct {
			name      string
			rels      topo.Set
			nonContig bool
		}{rel.String(), topo.NewSet(rel), false})
	}

	for _, wl := range workloads {
		for _, kind := range []index.Kind{index.KindRTree, index.KindRStar} {
			left := buildJoinIndex(t, kind, wl.items(380, 101))
			rightItems := wl.items(300, 202)
			right := buildJoinIndex(t, kind, rightItems)
			for _, rs := range relSets {
				label := fmt.Sprintf("%s/%s/%s", wl.name, kind, rs.name)
				truth := groundTruthJoin(t, left, rightItems, rs.rels, rs.nonContig)

				serial, err := JoinTopological(left, right, rs.rels, JoinOptions{
					Workers: 1, NonContiguous: rs.nonContig,
				})
				if err != nil {
					t.Fatalf("%s: serial join: %v", label, err)
				}
				samePairSet(t, label+"/serial", truth, joinPairSet(t, label, serial.Pairs))

				parallel, err := JoinTopological(left, right, rs.rels, JoinOptions{
					Workers: 8, NonContiguous: rs.nonContig,
				})
				if err != nil {
					t.Fatalf("%s: parallel join: %v", label, err)
				}
				samePairSet(t, label+"/parallel", truth, joinPairSet(t, label, parallel.Pairs))
				if parallel.Stats != serial.Stats {
					t.Fatalf("%s: parallel stats %+v != serial stats %+v",
						label, parallel.Stats, serial.Stats)
				}

			}
		}
	}
}

// TestJoinDifferentialSelf: self-joins with and without KeepSelfPairs
// must match the per-object ground truth on both tree kinds.
func TestJoinDifferentialSelf(t *testing.T) {
	items := workload.NewDataset(workload.Small, 350, 0, 77).Items
	for _, kind := range []index.Kind{index.KindRTree, index.KindRStar} {
		idx := buildJoinIndex(t, kind, items)
		for _, rel := range []topo.Relation{topo.Overlap, topo.Meet, topo.Equal} {
			rels := topo.NewSet(rel)
			full := groundTruthJoin(t, idx, items, rels, false)
			for _, keep := range []bool{false, true} {
				truth := make(map[pairKey]bool, len(full))
				for k := range full {
					if keep || k.a != k.b {
						truth[k] = true
					}
				}
				label := fmt.Sprintf("%s/%s/keep=%v", kind, rel, keep)
				serial, err := JoinTopological(idx, idx, rels, JoinOptions{Workers: 1, KeepSelfPairs: keep})
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				samePairSet(t, label+"/serial", truth, joinPairSet(t, label, serial.Pairs))
				parallel, err := JoinTopological(idx, idx, rels, JoinOptions{Workers: 8, KeepSelfPairs: keep})
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				samePairSet(t, label+"/parallel", truth, joinPairSet(t, label, parallel.Pairs))
				if parallel.Stats != serial.Stats {
					t.Fatalf("%s: parallel stats %+v != serial %+v", label, parallel.Stats, serial.Stats)
				}
			}
		}
	}
}

// TestJoinStreamAPI covers the streaming faces over the same engine:
// pull (iter.Pull2), iterator, limits, and early stops must agree with
// the batch join, end the traversal and leave nothing running.
func TestJoinStreamAPI(t *testing.T) {
	lStore, _, lIdx := joinScenario(t, 31, 240)
	rStore, _, rIdx := joinScenario(t, 32, 200)
	rels := topo.NewSet(topo.Overlap)
	opts := JoinOptions{LeftObjects: lStore, RightObjects: rStore}

	batch, err := JoinTopological(lIdx, rIdx, rels, opts)
	if err != nil {
		t.Fatal(err)
	}
	want := joinPairSet(t, "batch", batch.Pairs)
	if len(want) == 0 {
		t.Fatal("scenario produced no pairs; tests below would be vacuous")
	}

	// Pull-style consumption is iter.Pull2 over JoinPairs. Full drain
	// matches the batch answer.
	base := runtime.NumGoroutine()
	next, stop := iter.Pull2(JoinPairs(context.Background(), lIdx, rIdx, rels, opts, 0))
	var got []JoinPair
	for p, err, ok := next(); ok; p, err, ok = next() {
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, p)
	}
	stop()
	samePairSet(t, "pull", want, joinPairSet(t, "pull", got))

	// A limit bounds the pairs delivered; the Stats of the same stop,
	// taken through JoinStream, show the traversal ended early.
	n := 0
	for _, err := range JoinPairs(context.Background(), lIdx, rIdx, rels, opts, 3) {
		if err != nil {
			t.Fatal(err)
		}
		n++
	}
	if n != 3 {
		t.Fatalf("limit 3 delivered %d pairs", n)
	}
	// (Filter-only and serial, so that the third pair stops the engine
	// on the spot and the page count is deterministic.)
	n = 0
	stats, err := JoinStream(context.Background(), lIdx, rIdx, rels, JoinOptions{Workers: 1}, func(JoinPair) bool {
		n++
		return n < 3
	})
	if err != nil || stats.NodeAccesses >= batch.Stats.NodeAccesses {
		t.Fatalf("join stopped after 3 pairs: err %v, %d pages read, full join %d",
			err, stats.NodeAccesses, batch.Stats.NodeAccesses)
	}

	// Abandoned after three pairs: stop ends the join and its refinement
	// workers; nothing is left running.
	next, stop = iter.Pull2(JoinPairs(context.Background(), lIdx, rIdx, rels, opts, 0))
	for i := 0; i < 3; i++ {
		if _, err, ok := next(); !ok || err != nil {
			t.Fatalf("pair %d: ok=%v err=%v", i, ok, err)
		}
	}
	stop()
	if n := settledGoroutines(base); n > base {
		t.Fatalf("%d goroutines after stop, %d before", n, base)
	}

	// Iterator: break stops the join; full range matches the batch.
	seen := map[pairKey]bool{}
	for p, err := range JoinPairs(context.Background(), lIdx, rIdx, rels, opts, 0) {
		if err != nil {
			t.Fatal(err)
		}
		seen[pairKey{p.LeftOID, p.RightOID}] = true
	}
	samePairSet(t, "iterator", want, seen)
	n = 0
	for _, err := range JoinPairs(context.Background(), lIdx, rIdx, rels, opts, 0) {
		if err != nil {
			t.Fatal(err)
		}
		if n++; n == 2 {
			break
		}
	}
	if n != 2 {
		t.Fatalf("iterator break delivered %d pairs, want 2", n)
	}
}
