package query

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"mbrtopo/internal/geom"
	"mbrtopo/internal/topo"
)

// concurrentOp is one operation of the mixed workload: it runs a
// query against the scenario and returns the per-query NodeAccesses
// together with a result fingerprint for equality checks.
type concurrentOp struct {
	name string
	run  func(p *Processor, sc *scenario) (uint64, string, error)
}

func mixedOps(rng *rand.Rand) []concurrentOp {
	var ops []concurrentOp
	rels := []topo.Relation{topo.Overlap, topo.Meet, topo.Inside, topo.Covers, topo.Disjoint}
	for i := 0; i < 12; i++ {
		i := i
		w := 4 + rng.Float64()*20
		h := 4 + rng.Float64()*20
		x := rng.Float64() * (100 - w)
		y := rng.Float64() * (100 - h)
		win := geom.R(x, y, x+w, y+h)
		switch i % 3 {
		case 0:
			rel := rels[i%len(rels)]
			ops = append(ops, concurrentOp{
				name: fmt.Sprintf("querymbr-%d", i),
				run: func(p *Processor, sc *scenario) (uint64, string, error) {
					res, err := p.QueryMBR(rel, win)
					return res.Stats.NodeAccesses, fingerprint(res.Matches), err
				},
			})
		case 1:
			rel := rels[(i+2)%len(rels)]
			ops = append(ops, concurrentOp{
				name: fmt.Sprintf("query-%d", i),
				run: func(p *Processor, sc *scenario) (uint64, string, error) {
					ref, ok := sc.objects[uint64(1+i%len(sc.objects))]
					if !ok {
						return 0, "", fmt.Errorf("missing reference object")
					}
					res, err := p.Query(rel, ref)
					return res.Stats.NodeAccesses, fingerprint(res.Matches), err
				},
			})
		default:
			pt := geom.Point{X: x, Y: y}
			k := 1 + i%7
			ops = append(ops, concurrentOp{
				name: fmt.Sprintf("nearest-%d", i),
				run: func(p *Processor, sc *scenario) (uint64, string, error) {
					nn, ts, err := p.Idx.NearestCtx(context.Background(), pt, k)
					fp := ""
					for _, nb := range nn {
						fp += fmt.Sprintf("%d;", nb.OID)
					}
					return ts.NodeAccesses, fp, err
				},
			})
		}
	}
	return ops
}

func fingerprint(ms []Match) string {
	out := ""
	for _, m := range ms {
		out += fmt.Sprintf("%d;", m.OID)
	}
	return out
}

// TestConcurrentQueriesExactStats runs a mixed workload of 8
// goroutines against one shared index per variant and requires every
// query's NodeAccesses (and results) to equal its serial value — the
// point of per-traversal accounting. Run under -race this also proves
// the read path is data-race free.
func TestConcurrentQueriesExactStats(t *testing.T) {
	sc := buildScenario(t, 99, 500)
	ops := mixedOps(rand.New(rand.NewSource(42)))
	for name, idx := range sc.indexes {
		t.Run(name, func(t *testing.T) {
			proc := &Processor{Idx: idx, Objects: sc.objects}

			// Serial ground truth per operation.
			wantAccess := make([]uint64, len(ops))
			wantFP := make([]string, len(ops))
			for i, op := range ops {
				acc, fp, err := op.run(proc, sc)
				if err != nil {
					t.Fatalf("%s serial: %v", op.name, err)
				}
				wantAccess[i], wantFP[i] = acc, fp
			}

			// 8 goroutines, each running the whole mixed workload.
			const goroutines = 8
			errs := make(chan error, goroutines*len(ops))
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i, op := range ops {
						acc, fp, err := op.run(proc, sc)
						if err != nil {
							errs <- fmt.Errorf("g%d %s: %w", g, op.name, err)
							return
						}
						if acc != wantAccess[i] {
							errs <- fmt.Errorf("g%d %s: NodeAccesses %d under concurrency, %d serially",
								g, op.name, acc, wantAccess[i])
							return
						}
						if fp != wantFP[i] {
							errs <- fmt.Errorf("g%d %s: results diverged under concurrency", g, op.name)
							return
						}
					}
				}(g)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}
		})
	}
}

// TestConcurrentQueriesWithWriter interleaves readers with a writer to
// exercise the write path beside readers — the copy-on-write snapshots
// all three trees share — on every tree the scenario builds (results may
// legitimately change mid-stream, so only errors are checked). A reader
// that could reach a slot the writer is installing is a data race make
// race reports.
func TestConcurrentQueriesWithWriter(t *testing.T) {
	sc := buildScenario(t, 7, 300)
	for name, idx := range sc.indexes {
		t.Run(name, func(t *testing.T) {
			proc := &Processor{Idx: idx}
			var wg sync.WaitGroup
			errs := make(chan error, 9)
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					win := geom.R(float64(g*3), 10, float64(g*3+20), 60)
					for i := 0; i < 20; i++ {
						if _, err := proc.QueryMBR(topo.Overlap, win); err != nil {
							errs <- err
							return
						}
					}
				}(g)
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 40; i++ {
					oid := uint64(10000 + i)
					r := geom.R(float64(i), float64(i), float64(i)+3, float64(i)+3)
					if err := idx.Insert(r, oid); err != nil {
						errs <- err
						return
					}
					if err := idx.Delete(r, oid); err != nil {
						errs <- err
						return
					}
				}
			}()
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}
		})
	}
}

// TestQueryCtxCancellation requires an already-cancelled query to fail
// with context.Canceled without touching results.
func TestQueryCtxCancellation(t *testing.T) {
	sc := buildScenario(t, 3, 200)
	for name, idx := range sc.indexes {
		proc := &Processor{Idx: idx}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		_, err := proc.Stream(ctx, topo.NewSet(topo.Overlap), geom.R(0, 0, 100, 100), 0,
			func(Match) bool { t.Errorf("%s: a cancelled query delivered a match", name); return false })
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: want context.Canceled, got %v", name, err)
		}
	}
}

// settledGoroutines waits for the goroutine count to fall back to
// base (an iter.Pull2 coroutine and a join's workers exit just after
// stop returns, not before) and returns the last reading.
func settledGoroutines(base int) int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(2 * time.Second); n > base && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(time.Millisecond)
	}
	return n
}

// TestPullStreaming exercises pull-style consumption, which is
// iter.Pull2 over Matches: a full drain equals the batch query, and a
// consumer that stops after three matches stops the traversal (fewer
// pages read than the full run) and leaves no goroutine behind.
func TestPullStreaming(t *testing.T) {
	sc := buildScenario(t, 21, 400)
	rels := topo.NewSet(topo.Overlap)
	win := geom.R(20, 20, 70, 70)
	for name, idx := range sc.indexes {
		proc := &Processor{Idx: idx}
		batch, err := proc.QuerySetMBR(rels, win)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(batch.Matches) <= 4 || batch.Stats.NodeAccesses <= 3 {
			t.Fatalf("%s: scenario too small to observe an early stop: %+v", name, batch.Stats)
		}
		base := runtime.NumGoroutine()

		// Full drain: same OID set as the batch query (order differs —
		// streaming is tree order). Matches carries no Stats, so the
		// pages read are taken from the tree's own page counter.
		idx.ResetIOStats()
		next, stop := iter.Pull2(proc.Matches(context.Background(), rels, win, 0))
		got := map[uint64]bool{}
		for m, err, ok := next(); ok; m, err, ok = next() {
			if err != nil {
				t.Fatalf("%s: pull: %v", name, err)
			}
			got[m.OID] = true
		}
		stop()
		if len(got) != len(batch.Matches) {
			t.Errorf("%s: pulled %d matches, batch found %d", name, len(got), len(batch.Matches))
		}
		for _, m := range batch.Matches {
			if !got[m.OID] {
				t.Errorf("%s: pull missed oid %d", name, m.OID)
			}
		}
		if reads := idx.IOStats().Reads; reads != batch.Stats.NodeAccesses {
			t.Errorf("%s: full pull read %d pages, batch %d", name, reads, batch.Stats.NodeAccesses)
		}

		// Stop after three: the traversal ends there.
		idx.ResetIOStats()
		next, stop = iter.Pull2(proc.Matches(context.Background(), rels, win, 0))
		for i := 0; i < 3; i++ {
			if _, err, ok := next(); !ok || err != nil {
				t.Fatalf("%s: match %d: ok=%v err=%v", name, i, ok, err)
			}
		}
		stop()
		if reads := idx.IOStats().Reads; reads >= batch.Stats.NodeAccesses {
			t.Errorf("%s: stopped pull read %d pages, full traversal %d", name, reads, batch.Stats.NodeAccesses)
		}
		if n := settledGoroutines(base); n > base {
			t.Errorf("%s: %d goroutines after stop, %d before", name, n, base)
		}

		// The limit is the same early stop, reported through Stats.
		stats, err := proc.Stream(context.Background(), rels, win, 3, func(Match) bool { return true })
		if err != nil {
			t.Fatalf("%s: limited stream: %v", name, err)
		}
		if stats.Candidates != 3 || stats.NodeAccesses >= batch.Stats.NodeAccesses {
			t.Errorf("%s: limit 3 delivered %d matches in %d pages, full traversal %d",
				name, stats.Candidates, stats.NodeAccesses, batch.Stats.NodeAccesses)
		}
	}
}

// TestMatchesIterator exercises the range-over-func adapter, including
// early break.
func TestMatchesIterator(t *testing.T) {
	sc := buildScenario(t, 23, 300)
	rels := topo.NewSet(topo.Overlap)
	win := geom.R(10, 10, 80, 80)
	for name, idx := range sc.indexes {
		proc := &Processor{Idx: idx}
		batch, err := proc.QuerySetMBR(rels, win)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		n := 0
		for _, err := range proc.Matches(context.Background(), rels, win, 0) {
			if err != nil {
				t.Fatalf("%s: iterator: %v", name, err)
			}
			n++
		}
		if n != len(batch.Matches) {
			t.Errorf("%s: iterator yielded %d, batch %d", name, n, len(batch.Matches))
		}
		// Early break must not panic or leak.
		for range proc.Matches(context.Background(), rels, win, 0) {
			break
		}
	}
}
