package query

import (
	"context"
	"fmt"
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

// TestJoinStreamAPI: the streaming join agrees with the batch join when
// drained, and a declined yield ends the traversal on the spot and
// leaves nothing running.
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

	base := runtime.NumGoroutine()
	var got []JoinPair
	if _, err := JoinStream(context.Background(), lIdx, rIdx, rels, opts, func(p JoinPair) bool {
		got = append(got, p)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	samePairSet(t, "stream", want, joinPairSet(t, "stream", got))

	// Refined and parallel, abandoned at the third pair: exactly three
	// are delivered and no worker outlives the call.
	n := 0
	if _, err := JoinStream(context.Background(), lIdx, rIdx, rels, opts, func(JoinPair) bool {
		n++
		return n < 3
	}); err != nil || n != 3 {
		t.Fatalf("join stopped at the third pair: err %v, %d pairs delivered", err, n)
	}
	if n := settledGoroutines(base); n > base {
		t.Fatalf("%d goroutines after the stop, %d before", n, base)
	}

	// Filter-only and serial, so that the third pair stops the engine
	// on the spot and the page count is deterministic.
	n = 0
	stats, err := JoinStream(context.Background(), lIdx, rIdx, rels, JoinOptions{Workers: 1}, func(JoinPair) bool {
		n++
		return n < 3
	})
	if err != nil || stats.NodeAccesses >= batch.Stats.NodeAccesses {
		t.Fatalf("join stopped after 3 pairs: err %v, %d pages read, full join %d",
			err, stats.NodeAccesses, batch.Stats.NodeAccesses)
	}
}
