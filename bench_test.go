package mbrtopo_test

// One testing.B benchmark per table and figure of the paper's
// evaluation, plus micro-benchmarks of the core primitives. The
// benchmarks report the paper's metrics (disk accesses per search,
// hits per search) via b.ReportMetric, so `go test -bench=. -benchmem`
// regenerates the evaluation series in benchmark form; `topobench`
// prints the same data as tables.

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"mbrtopo/internal/experiments"
	"mbrtopo/internal/geom"
	"mbrtopo/internal/index"
	"mbrtopo/internal/mbr"
	"mbrtopo/internal/query"
	"mbrtopo/internal/topo"
	"mbrtopo/internal/workload"
)

// benchConfig keeps bench runs short while preserving the paper's
// page capacity; topobench runs the full 10,000-object setup.
func benchConfig() experiments.Config {
	return experiments.Config{
		NData:    3000,
		NQueries: 20,
		Seed:     1995,
		PageSize: index.PaperPageSize,
		Classes:  workload.AllSizeClasses(),
	}
}

type benchSetup struct {
	d    *workload.Dataset
	idx  index.Index
	proc *query.Processor
}

func newBenchSetup(b *testing.B, kind index.Kind, class workload.SizeClass) *benchSetup {
	b.Helper()
	cfg := benchConfig()
	d := workload.NewDataset(class, cfg.NData, cfg.NQueries, cfg.Seed+int64(class))
	idx, err := index.NewWithPageSize(kind, cfg.PageSize)
	if err != nil {
		b.Fatal(err)
	}
	if err := index.Load(idx, d.Items); err != nil {
		b.Fatal(err)
	}
	return &benchSetup{d: d, idx: idx, proc: &query.Processor{Idx: idx}}
}

// runRelationBench measures one relation's filter step, reporting the
// paper's two metrics.
func runRelationBench(b *testing.B, s *benchSetup, rel topo.Relation) {
	b.Helper()
	var accesses uint64
	var hits int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := s.d.Queries[i%len(s.d.Queries)]
		res, err := s.proc.QueryMBR(rel, q)
		if err != nil {
			b.Fatal(err)
		}
		accesses += res.Stats.NodeAccesses
		hits += res.Stats.Candidates
	}
	b.ReportMetric(float64(accesses)/float64(b.N), "accesses/op")
	b.ReportMetric(float64(hits)/float64(b.N), "hits/op")
}

// BenchmarkTable3 regenerates the Table 3 series: hits per search for
// every relation and size class (see the hits/op metric).
func BenchmarkTable3(b *testing.B) {
	for _, class := range workload.AllSizeClasses() {
		s := newBenchSetup(b, index.KindRTree, class)
		for _, rel := range topo.All() {
			b.Run(fmt.Sprintf("%s/%s", class, rel), func(b *testing.B) {
				runRelationBench(b, s, rel)
			})
		}
	}
}

// BenchmarkFig11 regenerates the Figure 11 series: disk accesses per
// search for the three access methods (see the accesses/op metric).
func BenchmarkFig11(b *testing.B) {
	for _, class := range workload.AllSizeClasses() {
		for _, kind := range index.AllKinds() {
			s := newBenchSetup(b, kind, class)
			for _, rel := range topo.All() {
				b.Run(fmt.Sprintf("%s/%s/%s", class, kind, rel), func(b *testing.B) {
					runRelationBench(b, s, rel)
				})
			}
		}
	}
}

// BenchmarkFig12 measures the subset-lattice derivation of Figure 12.
func BenchmarkFig12(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(experiments.RunFig12().Edges) == 0 {
			b.Fatal("empty lattice")
		}
	}
}

// BenchmarkTable4 measures deriving the full conjunction-emptiness
// table from the composition algebra.
func BenchmarkTable4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.RunTable4()
		if r.Empty[topo.Inside][topo.Overlap].IsEmpty() {
			b.Fatal("bad table")
		}
	}
}

// BenchmarkTable5 regenerates the Table 5 comparison: crisp vs
// 2-neighbourhood (non-crisp) retrieval on the medium file.
func BenchmarkTable5(b *testing.B) {
	s := newBenchSetup(b, index.KindRTree, workload.Medium)
	tolerant := &query.Processor{Idx: s.idx, NonCrisp: true}
	for _, rel := range topo.All() {
		for _, mode := range []struct {
			name string
			proc *query.Processor
		}{{"crisp", s.proc}, {"2nbhd", tolerant}} {
			b.Run(fmt.Sprintf("%s/%s", rel, mode.name), func(b *testing.B) {
				var accesses uint64
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					q := s.d.Queries[i%len(s.d.Queries)]
					res, err := mode.proc.QueryMBR(rel, q)
					if err != nil {
						b.Fatal(err)
					}
					accesses += res.Stats.NodeAccesses
				}
				b.ReportMetric(float64(accesses)/float64(b.N), "accesses/op")
			})
		}
	}
}

// BenchmarkWindowBaseline contrasts the traditional window query with
// the 4-step retrieval for a selective relation (Section 4 remark).
func BenchmarkWindowBaseline(b *testing.B) {
	s := newBenchSetup(b, index.KindRTree, workload.Medium)
	b.Run("window", func(b *testing.B) {
		var accesses uint64
		for i := 0; i < b.N; i++ {
			q := s.d.Queries[i%len(s.d.Queries)]
			pred := func(r geom.Rect) bool { return r.Intersects(q) }
			ts, err := s.idx.SearchCtx(context.Background(), pred, pred, func(geom.Rect, uint64) bool { return true })
			if err != nil {
				b.Fatal(err)
			}
			accesses += ts.NodeAccesses
		}
		b.ReportMetric(float64(accesses)/float64(b.N), "accesses/op")
	})
	b.Run("4step-covers", func(b *testing.B) {
		runRelationBench(b, s, topo.Covers)
	})
}

// BenchmarkComplexQueries measures two-reference conjunctions: the
// Table 4 short-circuit versus an executed conjunction (Section 5).
func BenchmarkComplexQueries(b *testing.B) {
	cfg := benchConfig()
	d := workload.NewDataset(workload.Medium, 1000, 10, cfg.Seed)
	idx, err := index.NewWithPageSize(index.KindRTree, cfg.PageSize)
	if err != nil {
		b.Fatal(err)
	}
	if err := index.Load(idx, d.Items); err != nil {
		b.Fatal(err)
	}
	store := query.MapStore(d.ObjectsFor(cfg.Seed + 1))
	proc := &query.Processor{Idx: idx, Objects: store}
	rng := rand.New(rand.NewSource(3))
	q1 := workload.PolygonInRect(rng, geom.R(100, 100, 300, 300), 8)
	q2 := workload.PolygonInRect(rng, geom.R(200, 200, 420, 420), 8)
	qFar := workload.PolygonInRect(rng, geom.R(700, 700, 900, 900), 8)

	b.Run("short-circuit", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := proc.QueryConjunction(topo.Inside, qFar, topo.Overlap, q1)
			if err != nil {
				b.Fatal(err)
			}
			if !res.Stats.ShortCircuited {
				b.Fatal("expected short circuit")
			}
		}
	})
	b.Run("executed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := proc.QueryConjunction(topo.Overlap, q1, topo.Overlap, q2); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkRelate measures the exact polygon refinement step.
func BenchmarkRelate(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	p := workload.PolygonInRect(rng, geom.R(0, 0, 10, 10), 12)
	q := workload.PolygonInRect(rng, geom.R(5, 5, 15, 15), 12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = geom.Relate(p, q)
	}
}

// BenchmarkConfigOf measures the filter-step classification primitive.
func BenchmarkConfigOf(b *testing.B) {
	p := geom.R(1, 2, 3, 4)
	q := geom.R(2, 2, 5, 5)
	for i := 0; i < b.N; i++ {
		_ = mbr.ConfigOf(p, q)
	}
}

// BenchmarkJoin measures the synchronized topological spatial join
// against two medium layers.
func BenchmarkJoin(b *testing.B) {
	cfg := benchConfig()
	left := workload.NewDataset(workload.Medium, 1500, 1, cfg.Seed+50)
	right := workload.NewDataset(workload.Medium, 1500, 1, cfg.Seed+51)
	lIdx, err := index.NewWithPageSize(index.KindRStar, cfg.PageSize)
	if err != nil {
		b.Fatal(err)
	}
	rIdx, err := index.NewWithPageSize(index.KindRStar, cfg.PageSize)
	if err != nil {
		b.Fatal(err)
	}
	if err := index.Load(lIdx, left.Items); err != nil {
		b.Fatal(err)
	}
	if err := index.Load(rIdx, right.Items); err != nil {
		b.Fatal(err)
	}
	for _, rel := range []topo.Relation{topo.Overlap, topo.Inside} {
		b.Run(rel.String(), func(b *testing.B) {
			b.ReportAllocs()
			var accesses uint64
			var pairs int
			for i := 0; i < b.N; i++ {
				res, err := query.JoinTopological(lIdx, rIdx, topo.NewSet(rel), query.JoinOptions{})
				if err != nil {
					b.Fatal(err)
				}
				accesses += res.Stats.NodeAccesses
				pairs += len(res.Pairs)
			}
			b.ReportMetric(float64(accesses)/float64(b.N), "accesses/op")
			b.ReportMetric(float64(pairs)/float64(b.N), "pairs/op")
		})
	}
}

// BenchmarkJoinParallel measures the plane-sweep join engine on the
// 100k uniform workload (two STR-packed 50k R*-trees) at 1–8 workers.
// Metrics: accesses/op (the paper's disk accesses) and pairs/sec.
func BenchmarkJoinParallel(b *testing.B) {
	const nPerSide = 50000
	cfg := benchConfig()
	left := workload.NewDataset(workload.Small, nPerSide, 1, cfg.Seed+60)
	right := workload.NewDataset(workload.Small, nPerSide, 1, cfg.Seed+61)
	lIdx, err := index.NewPacked(index.KindRStar, cfg.PageSize, left.Items)
	if err != nil {
		b.Fatal(err)
	}
	rIdx, err := index.NewPacked(index.KindRStar, cfg.PageSize, right.Items)
	if err != nil {
		b.Fatal(err)
	}
	rels := topo.NotDisjoint
	run := func(b *testing.B, opts query.JoinOptions) {
		var accesses uint64
		var pairs int
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			n := 0
			stats, err := query.JoinStream(context.Background(), lIdx, rIdx, rels, opts,
				func(query.JoinPair) bool { n++; return true })
			if err != nil {
				b.Fatal(err)
			}
			if n == 0 {
				b.Fatal("join found no pairs")
			}
			accesses += stats.NodeAccesses
			pairs += n
		}
		b.ReportMetric(float64(accesses)/float64(b.N), "accesses/op")
		b.ReportMetric(float64(pairs)/b.Elapsed().Seconds(), "pairs/sec")
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("sweep-%dw", workers), func(b *testing.B) {
			run(b, query.JoinOptions{Workers: workers})
		})
	}
}

// BenchmarkNearest measures kNN on R-tree and R+-tree.
func BenchmarkNearest(b *testing.B) {
	for _, kind := range []index.Kind{index.KindRTree, index.KindRPlus} {
		s := newBenchSetup(b, kind, workload.Medium)
		b.Run(kind.String(), func(b *testing.B) {
			rng := rand.New(rand.NewSource(4))
			for i := 0; i < b.N; i++ {
				p := geom.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000}
				if _, _, err := s.idx.NearestCtx(context.Background(), p, 10); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkParallelQuery measures aggregate query throughput when 8
// goroutines share one index, against the same workload executed
// serially — the payoff of the RWMutex read path (the old exclusive
// lock serialised every search). Each sub-benchmark runs the full
// mixed relation set over the medium workload's query file.
func BenchmarkParallelQuery(b *testing.B) {
	const goroutines = 8
	rels := []topo.Relation{topo.Overlap, topo.Meet, topo.Inside, topo.Covers}
	for _, kind := range index.AllKinds() {
		s := newBenchSetup(b, kind, workload.Medium)
		runBatch := func(g int) error {
			for i, q := range s.d.Queries {
				if _, err := s.proc.QueryMBR(rels[(i+g)%len(rels)], q); err != nil {
					return err
				}
			}
			return nil
		}
		b.Run(fmt.Sprintf("%s/serial", kind), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				// Same total work as one parallel iteration: 8 batches.
				for g := 0; g < goroutines; g++ {
					if err := runBatch(g); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
		b.Run(fmt.Sprintf("%s/parallel-%d", kind, goroutines), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				var wg sync.WaitGroup
				errs := make(chan error, goroutines)
				for g := 0; g < goroutines; g++ {
					wg.Add(1)
					go func(g int) {
						defer wg.Done()
						if err := runBatch(g); err != nil {
							errs <- err
						}
					}(g)
				}
				wg.Wait()
				close(errs)
				for err := range errs {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBulkLoad measures STR packing throughput.
func BenchmarkBulkLoad(b *testing.B) {
	cfg := benchConfig()
	d := workload.NewDataset(workload.Medium, cfg.NData, 1, cfg.Seed)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := index.NewPacked(index.KindRTree, cfg.PageSize, d.Items); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInsert measures loading throughput per access method.
func BenchmarkInsert(b *testing.B) {
	for _, kind := range index.AllKinds() {
		b.Run(kind.String(), func(b *testing.B) {
			rng := rand.New(rand.NewSource(9))
			idx, err := index.NewWithPageSize(kind, benchConfig().PageSize)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r := workload.RandomRect(rng, workload.Medium)
				if err := idx.Insert(r, uint64(i+1)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
