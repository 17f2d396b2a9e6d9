package query

import (
	"context"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"mbrtopo/internal/geom"
	"mbrtopo/internal/index"
	"mbrtopo/internal/topo"
	"mbrtopo/internal/workload"
)

// TestStep4Accounting runs every refining class through the one
// refinement step on each access method and holds it to the brute-force
// geometry oracle and to the step's accounting: a candidate is accepted
// from its configuration, resolved by the hull filter, or tested
// exactly — once, and only a rejected one is a false hit.
func TestStep4Accounting(t *testing.T) {
	sc := buildScenario(t, 57, 300)
	rng := rand.New(rand.NewSource(59))
	big := workload.PolygonInRect(rng, geom.R(20, 25, 70, 80), 9)
	small := workload.PolygonInRect(rng, geom.R(40, 40, 52, 51), 7)
	lStore, lRects, _ := joinScenario(t, 60, 150)
	rStore, rRects, _ := joinScenario(t, 61, 150)
	items := func(rects map[uint64]geom.Rect) []index.Item {
		var out []index.Item
		for oid, r := range rects {
			out = append(out, index.Item{Rect: r, OID: oid})
		}
		sort.Slice(out, func(i, j int) bool { return out[i].OID < out[j].OID })
		return out
	}

	// check is handed every answer a class produces; the class's sum
	// says whether the run exercised the counters it is there for.
	type checkFn func(label string, st Stats, matches int)
	region := func(secondFilter bool) func(*testing.T, index.Kind, checkFn) {
		return func(t *testing.T, kind index.Kind, check checkFn) {
			p := &Processor{Idx: sc.indexes[kind.String()], Objects: sc.objects, SecondFilter: secondFilter}
			for _, rels := range []topo.Set{topo.NewSet(topo.Overlap), topo.NewSet(topo.Disjoint, topo.Meet), topo.NewSet(topo.Inside, topo.CoveredBy)} {
				res, err := p.QuerySet(rels, big)
				if err != nil {
					t.Fatal(err)
				}
				if want := sc.bruteForce(rels, big); !slices.Equal(oids(res.Matches), want) {
					t.Fatalf("%v: %d matches, brute force %d", rels, len(res.Matches), len(want))
				}
				check(rels.String(), res.Stats, len(res.Matches))
			}
		}
	}
	classes := []struct {
		name         string
		covering     bool // joins need covering-rectangle trees
		direct, hull bool // the class must have moved these counters
		run          func(t *testing.T, kind index.Kind, check checkFn)
	}{
		{name: "region", direct: true, run: region(false)},
		{name: "region+SecondFilter", direct: true, hull: true, run: region(true)},
		{name: "conjunction", run: func(t *testing.T, kind index.Kind, check checkFn) {
			p := &Processor{Idx: sc.indexes[kind.String()], Objects: sc.objects}
			for _, r1 := range []topo.Relation{topo.Inside, topo.Overlap} {
				for _, r2 := range []topo.Relation{topo.Disjoint, topo.Overlap} {
					res, err := p.QueryConjunction(r1, big, r2, small)
					if err != nil {
						t.Fatal(err)
					}
					var want []uint64
					for oid, pg := range sc.objects {
						if geom.Relate(pg, big) == r1 && geom.Relate(pg, small) == r2 {
							want = append(want, oid)
						}
					}
					sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
					if !slices.Equal(oids(res.Matches), want) {
						t.Fatalf("%v∧%v: %d matches, brute force %d", r1, r2, len(res.Matches), len(want))
					}
					check(r1.String()+"∧"+r2.String(), res.Stats, len(res.Matches))
				}
			}
		}},
		{name: "line", direct: true, run: func(t *testing.T, kind index.Kind, check checkFn) {
			ls := newQuerySim(t, 58, kind)
			ls.s, ls.off = 4, 0 // FuzzQuery's lines, over the scenario's [0, 100]²
			ls.build(qLine, 300)
			lines, p := ls.lines, &Processor{Idx: ls.trees[0].idx}
			for _, rel := range geom.AllLineRegionRelations() {
				res, err := p.QueryLine(rel, big, lines)
				if err != nil {
					t.Fatal(err)
				}
				var want []uint64
				for oid, pl := range lines {
					if got, _ := geom.RelateLineRegion(pl, big); got == rel {
						want = append(want, oid)
					}
				}
				sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
				if !slices.Equal(oids(res.Matches), want) {
					t.Fatalf("%v: %d matches, brute force %d", rel, len(res.Matches), len(want))
				}
				check(rel.String(), res.Stats, len(res.Matches))
			}
		}},
		{name: "point", run: func(t *testing.T, kind index.Kind, check checkFn) {
			p := &Processor{Idx: sc.indexes[kind.String()], Objects: sc.objects}
			for i := 0; i < 30; i++ {
				pt := geom.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100}
				res, err := p.QueryPoint(pt, geom.PointInside)
				if err != nil {
					t.Fatal(err)
				}
				var want []uint64
				for oid, pg := range sc.objects {
					if pg.LocatePoint(pt) == geom.PointInside {
						want = append(want, oid)
					}
				}
				sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
				if !slices.Equal(oids(res.Matches), want) {
					t.Fatalf("%v: %d matches, brute force %d", pt, len(res.Matches), len(want))
				}
				check("point", res.Stats, len(res.Matches))
			}
		}},
		{name: "join", covering: true, direct: true, run: func(t *testing.T, kind index.Kind, check checkFn) {
			lIdx, rIdx := buildJoinIndex(t, kind, items(lRects)), buildJoinIndex(t, kind, items(rRects))
			// Overlap is swept, a set with disjoint takes the nested matcher.
			for _, rels := range []topo.Set{topo.NewSet(topo.Overlap), topo.NewSet(topo.Disjoint, topo.Meet)} {
				res, err := JoinTopological(lIdx, rIdx, rels, JoinOptions{LeftObjects: lStore, RightObjects: rStore})
				if err != nil {
					t.Fatal(err)
				}
				want := map[pairKey]bool{}
				for lo, lp := range lStore {
					for ro, rp := range rStore {
						if rels.Has(geom.Relate(lp, rp)) {
							want[pairKey{lo, ro}] = true
						}
					}
				}
				samePairSet(t, rels.String(), want, joinPairSet(t, rels.String(), res.Pairs))
				check(rels.String(), res.Stats, len(res.Pairs))
			}
		}},
	}
	for _, kind := range index.AllKinds() {
		for _, c := range classes {
			if c.covering && kind == index.KindRPlus {
				continue
			}
			t.Run(kind.String()+"/"+c.name, func(t *testing.T) {
				var sum Stats
				c.run(t, kind, func(label string, st Stats, matches int) {
					if st.Candidates != st.DirectAccepts+st.HullResolved+st.RefinementTests {
						t.Errorf("%s: %d candidates ≠ %d direct + %d hull-resolved + %d tested",
							label, st.Candidates, st.DirectAccepts, st.HullResolved, st.RefinementTests)
					}
					if matches != st.Candidates-st.FalseHits {
						t.Errorf("%s: %d matches ≠ %d candidates − %d false hits", label, matches, st.Candidates, st.FalseHits)
					}
					sum.Candidates += st.Candidates
					sum.RefinementTests += st.RefinementTests
					sum.DirectAccepts += st.DirectAccepts
					sum.FalseHits += st.FalseHits
					sum.HullResolved += st.HullResolved
				})
				if sum.RefinementTests == 0 || sum.FalseHits == 0 || sum.Candidates == sum.FalseHits {
					t.Errorf("vacuous run: %+v", sum)
				}
				if c.direct != (sum.DirectAccepts > 0) || c.hull != (sum.HullResolved > 0) {
					t.Errorf("direct accepts %d (expected: %v), hull-resolved %d (expected: %v)",
						sum.DirectAccepts, c.direct, sum.HullResolved, c.hull)
				}
			})
		}
	}
}

// countingStore counts the geometry fetches of a refined join. The
// engine serialises its emit callback, so a plain int is enough.
type countingStore struct {
	MapStore
	fetched *int
}

func (c countingStore) Object(oid uint64) (geom.Region, bool) {
	*c.fetched++
	return c.MapStore.Object(oid)
}

// TestRefinedJoinStopsAtThePair: the join refines a candidate where the
// engine delivers it, so a yield that declines after k pairs is the last
// thing the join does — no geometry is fetched after the k-th delivery,
// whatever the worker count — and a full run's Stats do not depend on
// the worker count either.
func TestRefinedJoinStopsAtThePair(t *testing.T) {
	lStore, _, lIdx := joinScenario(t, 33, 240)
	rStore, _, rIdx := joinScenario(t, 34, 200)
	rels := topo.NewSet(topo.Overlap)
	const k = 7

	var full [2]Stats
	for i, workers := range []int{1, 4} {
		fetched := 0
		opts := JoinOptions{
			Workers:      workers,
			LeftObjects:  countingStore{lStore, &fetched},
			RightObjects: countingStore{rStore, &fetched},
		}
		res, err := JoinTopological(lIdx, rIdx, rels, opts)
		if err != nil {
			t.Fatal(err)
		}
		if full[i] = res.Stats; fetched != 2*res.Stats.RefinementTests || len(res.Pairs) <= k {
			t.Fatalf("workers %d: %d fetches for %d exact tests, %d pairs", workers, fetched, res.Stats.RefinementTests, len(res.Pairs))
		}

		fetched = 0
		delivered, atStop := 0, -1
		stats, err := JoinStream(context.Background(), lIdx, rIdx, rels, opts, func(JoinPair) bool {
			if delivered++; delivered == k {
				atStop = fetched
				return false
			}
			return true
		})
		if err != nil {
			t.Fatalf("workers %d: a declined yield is a clean stop, got %v", workers, err)
		}
		if delivered != k || fetched != atStop {
			t.Errorf("workers %d: %d pairs delivered (want %d), %d fetches at the stop and %d after the join returned",
				workers, delivered, k, atStop, fetched)
		}
		if stats.RefinementTests*2 != fetched || stats.RefinementTests >= full[i].RefinementTests {
			t.Errorf("workers %d: stopped join counted %d exact tests for %d fetches (full run %d)",
				workers, stats.RefinementTests, fetched, full[i].RefinementTests)
		}
	}
	if full[0] != full[1] {
		t.Errorf("refined join Stats differ by worker count:\n  1: %+v\n  4: %+v", full[0], full[1])
	}
}
