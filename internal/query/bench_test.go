package query

import (
	"context"
	"testing"

	"mbrtopo/internal/index"
	"mbrtopo/internal/mbr"
	"mbrtopo/internal/rtree"
	"mbrtopo/internal/topo"
	"mbrtopo/internal/workload"
)

// BenchmarkJoinServedShape times the filter-level join /v1/join runs for
// the `join` workload of bench/: two 10 000-object medium packed
// R*-trees (seeds 1995 and 1996, the paper's page size), one worker, one
// join an op, rotating through the four relations that workload sends.
// Besides ns/op it reports the pairs each join returns, the pages it
// reads, and what its engine matched and tested: the node pairs it swept
// (TraversalStats.SweepPairs, leaf pairs included) and the leaf pairs
// it tested (PairTests), both counted once per relation before the
// timer starts.
//
//	go test -run '^$' -bench JoinServedShape ./internal/query
func BenchmarkJoinServedShape(b *testing.B) {
	var idx [2]index.Index
	for i := range idx {
		var err error
		idx[i], err = index.NewPacked(index.KindRStar, index.PaperPageSize,
			workload.NewDataset(workload.Medium, 10000, 0, int64(1995+i)).Items)
		if err != nil {
			b.Fatal(err)
		}
	}
	rels := []topo.Set{topo.NewSet(topo.Inside), topo.NewSet(topo.Contains), topo.NewSet(topo.Covers), topo.NewSet(topo.CoveredBy)}
	sweeps, tests := make([]uint64, len(rels)), make([]uint64, len(rels))
	for i, r := range rels {
		prune, accept := joinTests(mbr.CandidatesSet(r))
		ts, err := rtree.JoinCtx(context.Background(), idx[0].(*rtree.Tree), idx[1].(*rtree.Tree), prune, accept,
			func(rtree.Hit, rtree.Hit) bool { return true }, rtree.JoinOptions{Workers: 1})
		if err != nil {
			b.Fatal(err)
		}
		sweeps[i], tests[i] = ts.SweepPairs, ts.PairTests
	}
	opts := JoinOptions{Workers: 1}
	var pairs, swept, tested, accesses uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % len(rels)
		st, err := JoinStream(context.Background(), idx[0], idx[1], rels[k], opts, func(JoinPair) bool {
			pairs++
			return true
		})
		if err != nil {
			b.Fatal(err)
		}
		swept += sweeps[k]
		tested += tests[k]
		accesses += st.NodeAccesses
	}
	n := float64(b.N)
	b.ReportMetric(float64(pairs)/n, "pairs/op")
	b.ReportMetric(float64(swept)/n, "sweeps/op")
	b.ReportMetric(float64(tested)/n, "tests/op")
	b.ReportMetric(float64(accesses)/n, "accesses/op")
}
