package server

import (
	"context"
	"math/rand"
	"net/http"
	"testing"

	"mbrtopo/internal/geom"
	"mbrtopo/internal/index"
	"mbrtopo/internal/topo"
	"mbrtopo/internal/workload"
)

// BenchmarkWindowAnswer is one answer of the window workload in
// process: not_disjoint against a random medium reference over the tree
// `topod -tree rstar -bulk -class medium -seed 1995 -gen 100000` serves
// (an STR-packed R*-tree at the paper's page size), through the query
// handler's descent and line writer into a ResponseWriter that discards
// the bytes, trailer included. The 256 references are taken in turn
// and each has been answered twice before the clock starts, so the
// leaves under them have earned their text, as on a warm server.
// lines/op is the mean number of match lines per answer.
//
//	go test -run '^$' -bench '^BenchmarkWindowAnswer$' -benchmem -cpu 1 ./internal/server
func BenchmarkWindowAnswer(b *testing.B) {
	srv := New(Config{})
	d := workload.NewDataset(workload.Medium, 100000, 0, 1995)
	inst, err := srv.AddIndex(IndexSpec{Name: "main", Kind: index.KindRStar, PageSize: index.PaperPageSize, Bulk: true}, d.Items)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1995 + 7919))
	refs := make([]geom.Rect, 256)
	for i := range refs {
		refs[i] = workload.RandomRect(rng, workload.Medium)
	}
	proc, w, ctx := inst.ReadProc(), discard{header: make(http.Header)}, context.Background()
	answer := func(ref geom.Rect) int {
		lw := srv.newLineWriter(w, inProcess, false)
		stats, err := proc.StreamLeaves(ctx, topo.NotDisjoint, ref, 0, lw.leaf)
		if err != nil {
			b.Fatal(err)
		}
		ws := StatsToWire(stats)
		lw.endQuery(&QueryLine{Stats: &ws})
		return stats.Candidates
	}
	for range 2 {
		for _, ref := range refs {
			answer(ref)
		}
	}
	lines := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lines += answer(refs[i%len(refs)])
	}
	b.ReportMetric(float64(lines)/float64(b.N), "lines/op")
}
