package query

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"mbrtopo/internal/geom"
	"mbrtopo/internal/index"
	"mbrtopo/internal/interval"
	"mbrtopo/internal/mbr"
	"mbrtopo/internal/rtree"
	"mbrtopo/internal/topo"
	"mbrtopo/internal/workload"
)

// TestBiCoverersSound: random nested interval pairs must land in the
// derived BiCoverers set (the join pruning kernel), and every member
// must be witnessed.
func TestBiCoverersSound(t *testing.T) {
	var grid []float64
	for v := -2.0; v <= 34; v += 1 {
		grid = append(grid, v)
	}
	q := interval.Interval{Lo: 10, Hi: 20}
	witnessed := map[interval.Relation]interval.Set{}
	for _, pl := range grid {
		for _, ph := range grid {
			if ph <= pl {
				continue
			}
			p := interval.Interval{Lo: pl, Hi: ph}
			r := interval.Relate(p, q)
			for _, a := range []float64{pl, pl - 1, pl - 7, pl - 40} {
				for _, b := range []float64{ph, ph + 1, ph + 7, ph + 40} {
					// Include c = a and d = b so endpoint-coincidence
					// relations (equal, starts, finishes) get witnessed.
					cs := []float64{q.Lo, q.Lo - 1, q.Lo - 7}
					if a <= q.Lo {
						cs = append(cs, a)
					}
					ds := []float64{q.Hi, q.Hi + 1, q.Hi + 7}
					if b >= q.Hi {
						ds = append(ds, b)
					}
					for _, c := range cs {
						for _, d := range ds {
							got := interval.Relate(interval.Interval{Lo: a, Hi: b}, interval.Interval{Lo: c, Hi: d})
							if !interval.BiCoverers(r).Has(got) {
								t.Fatalf("pair P=[%v %v] Q=[%v %v] relation %v not in BiCoverers(%v)",
									a, b, c, d, got, r)
							}
							witnessed[r] = witnessed[r].Add(got)
						}
					}
				}
			}
		}
	}
	for _, r := range interval.All() {
		if missing := interval.BiCoverers(r).Minus(witnessed[r]); !missing.IsEmpty() {
			t.Errorf("BiCoverers(%v): members %v never witnessed", r, missing)
		}
	}
	// BiCoverers extends one-sided Coverers.
	for _, r := range interval.All() {
		if interval.Coverers(r).Minus(interval.BiCoverers(r)) != 0 {
			t.Errorf("BiCoverers(%v) misses one-sided coverers", r)
		}
	}
}

func joinScenario(t *testing.T, seed int64, n int) (MapStore, map[uint64]geom.Rect, index.Index) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	store := MapStore{}
	rects := map[uint64]geom.Rect{}
	idx, err := index.NewWithPageSize(index.KindRStar, 512)
	if err != nil {
		t.Fatal(err)
	}
	for oid := uint64(1); oid <= uint64(n); oid++ {
		w := 1 + rng.Float64()*7
		h := 1 + rng.Float64()*7
		x := rng.Float64() * (100 - w)
		y := rng.Float64() * (100 - h)
		pg := workload.PolygonInRect(rng, geom.R(x, y, x+w, y+h), 5+rng.Intn(5))
		store[oid] = pg
		rects[oid] = pg.Bounds()
		if err := idx.Insert(pg.Bounds(), oid); err != nil {
			t.Fatal(err)
		}
	}
	return store, rects, idx
}

type pairKey struct{ a, b uint64 }

func sortPairs(ps []pairKey) {
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].a != ps[j].a {
			return ps[i].a < ps[j].a
		}
		return ps[i].b < ps[j].b
	})
}

// TestJoinTopologicalAgainstBruteForce: filter-level and refined joins
// must match the n² ground truth, for two indexes and for a self-join.
func TestJoinTopologicalAgainstBruteForce(t *testing.T) {
	lStore, lRects, lIdx := joinScenario(t, 5, 220)
	rStore, rRects, rIdx := joinScenario(t, 9, 180)

	for _, rel := range []topo.Relation{topo.Overlap, topo.Meet, topo.Inside, topo.Contains, topo.Equal} {
		rels := topo.NewSet(rel)
		// Filter-level ground truth: admissible MBR configurations.
		var wantFilter []pairKey
		for lo, lr := range lRects {
			for ro, rr := range rRects {
				if mbr.CandidatesSet(rels).Has(mbr.ConfigOf(lr, rr)) {
					wantFilter = append(wantFilter, pairKey{lo, ro})
				}
			}
		}
		res, err := JoinTopological(lIdx, rIdx, rels, JoinOptions{})
		if err != nil {
			t.Fatal(err)
		}
		got := make([]pairKey, len(res.Pairs))
		for i, p := range res.Pairs {
			got[i] = pairKey{p.LeftOID, p.RightOID}
		}
		sortPairs(got)
		sortPairs(wantFilter)
		if len(got) != len(wantFilter) {
			t.Fatalf("%v: filter join %d pairs, want %d", rel, len(got), len(wantFilter))
		}
		for i := range got {
			if got[i] != wantFilter[i] {
				t.Fatalf("%v: pair %d mismatch", rel, i)
			}
		}
		if res.Stats.NodeAccesses == 0 {
			t.Fatalf("%v: no I/O counted", rel)
		}

		// Refined ground truth: exact relation.
		var wantExact []pairKey
		for lo, lp := range lStore {
			for ro, rp := range rStore {
				if geom.Relate(lp, rp) == rel {
					wantExact = append(wantExact, pairKey{lo, ro})
				}
			}
		}
		res, err = JoinTopological(lIdx, rIdx, rels, JoinOptions{
			LeftObjects: lStore, RightObjects: rStore,
		})
		if err != nil {
			t.Fatal(err)
		}
		got = got[:0]
		for _, p := range res.Pairs {
			got = append(got, pairKey{p.LeftOID, p.RightOID})
		}
		sortPairs(got)
		sortPairs(wantExact)
		if len(got) != len(wantExact) {
			t.Fatalf("%v: refined join %d pairs, want %d", rel, len(got), len(wantExact))
		}
		for i := range got {
			if got[i] != wantExact[i] {
				t.Fatalf("%v: refined pair %d mismatch", rel, i)
			}
		}
	}
}

// TestSelfJoin: meet pairs within one layer, with and without self
// pairs.
func TestSelfJoin(t *testing.T) {
	store, rects, idx := joinScenario(t, 13, 200)
	rels := topo.NewSet(topo.Overlap)
	res, err := JoinTopological(idx, idx, rels, JoinOptions{LeftObjects: store, RightObjects: store})
	if err != nil {
		t.Fatal(err)
	}
	var want []pairKey
	for a, pa := range store {
		for b, pb := range store {
			if a != b && geom.Relate(pa, pb) == topo.Overlap {
				want = append(want, pairKey{a, b})
			}
		}
	}
	got := make([]pairKey, len(res.Pairs))
	for i, p := range res.Pairs {
		got[i] = pairKey{p.LeftOID, p.RightOID}
		if p.LeftOID == p.RightOID {
			t.Fatal("self pair kept without KeepSelfPairs")
		}
	}
	sortPairs(got)
	sortPairs(want)
	if len(got) != len(want) {
		t.Fatalf("self-join: %d pairs, want %d", len(got), len(want))
	}

	// KeepSelfPairs + equal: every object pairs with itself.
	res, err = JoinTopological(idx, idx, topo.NewSet(topo.Equal), JoinOptions{
		LeftObjects: store, RightObjects: store, KeepSelfPairs: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	selfCount := 0
	for _, p := range res.Pairs {
		if p.LeftOID == p.RightOID {
			selfCount++
		}
	}
	if selfCount != len(rects) {
		t.Fatalf("equal self-join found %d self pairs, want %d", selfCount, len(rects))
	}
}

// TestJoinPruningEffective: the synchronized join must read far fewer
// pages than nested per-object queries would.
func TestJoinPruningEffective(t *testing.T) {
	_, _, lIdx := joinScenario(t, 21, 300)
	_, _, rIdx := joinScenario(t, 22, 300)
	res, err := JoinTopological(lIdx, rIdx, topo.NewSet(topo.Inside), JoinOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// A nested-loop strategy costs ≈ N × (tree height) reads; the join
	// must be well under half of that.
	nested := uint64(300 * lIdx.Height())
	if res.Stats.NodeAccesses*2 > nested {
		t.Fatalf("join read %d pages, nested baseline %d", res.Stats.NodeAccesses, nested)
	}
}

func TestJoinErrors(t *testing.T) {
	_, _, lIdx := joinScenario(t, 1, 30)
	rp, err := index.NewWithPageSize(index.KindRPlus, 512)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := JoinTopological(lIdx, rp, topo.NewSet(topo.Overlap), JoinOptions{}); err == nil {
		t.Error("R+ join accepted")
	}
	if _, err := JoinTopological(lIdx, lIdx, topo.Set(0), JoinOptions{}); err == nil {
		t.Error("empty relation set accepted")
	}
	store, _, idx := joinScenario(t, 2, 30)
	if _, err := JoinTopological(idx, idx, topo.NewSet(topo.Overlap), JoinOptions{
		LeftObjects: store, RightObjects: MapStore{},
	}); err == nil {
		t.Error("missing right object not reported")
	}
}

// TestJoinFiguresPinned: what the join engine does on packed R*-trees
// of the paper's three size classes — the `join` workload's set-up
// (two 10 000-object trees, seeds 1995 and 1996, one relation a
// request) — is what it did while a histogram density estimate sat in
// front of the sweep-or-nested decision: the same pairs (count and an
// order-free checksum), the same pages, the same number of matched node
// pairs. Those four columns were printed by this test with that
// estimate passed to the engine as JoinStream then did; it sent one
// node pair of the large class's 4 115 down the nested loop and swept
// every other, as the size rule alone now sweeps them all.
//
// tested counts the accept tests (TraversalStats.PairTests). Before the
// relation's sign masks steered the leaf sweep it was the same for every
// relation of a class: 149 939 (small), 472 771 (medium) and 1 997 225
// (large).
func TestJoinFiguresPinned(t *testing.T) {
	type row struct {
		pairs     int
		checksum  uint64
		accesses  uint64
		nodePairs uint64
		tested    uint64
	}
	pinned := map[string]row{
		"small/inside":      {530, 2619934539177, 553, 1405, 58880},
		"small/contains":    {478, 2374103480737, 553, 1405, 58045},
		"small/covers":      {478, 2374103480737, 553, 1405, 58045},
		"small/covered_by":  {530, 2619934539177, 553, 1405, 58880},
		"small/overlap":     {44232, 220918087341230, 553, 1405, 149939},
		"small/meet":        {41692, 208375807951164, 553, 1405, 149939},
		"medium/inside":     {2547, 12685832104232, 566, 1689, 148296},
		"medium/contains":   {2560, 12811954050650, 566, 1689, 144797},
		"medium/covers":     {2560, 12811954050650, 566, 1689, 144797},
		"medium/covered_by": {2547, 12685832104232, 566, 1689, 148296},
		"medium/overlap":    {222050, 1110820578932225, 566, 1689, 472771},
		"medium/meet":       {209022, 1045256261058536, 566, 1689, 472771},
		"large/inside":      {13406, 66060474157309, 718, 4115, 431881},
		"large/contains":    {13020, 65304432582132, 718, 4115, 417694},
		"large/covers":      {13020, 65304432582132, 718, 4115, 417694},
		"large/covered_by":  {13406, 66060474157309, 718, 4115, 431881},
		"large/overlap":     {1140431, 5708885354228733, 718, 4115, 1997225},
		"large/meet":        {1072825, 5369615381700767, 718, 4115, 1997225},
	}
	for _, class := range workload.AllSizeClasses() {
		var trees [2]*rtree.Tree
		for i := range trees {
			idx, err := index.NewPacked(index.KindRStar, index.PaperPageSize,
				workload.NewDataset(class, 10000, 0, int64(1995+i)).Items)
			if err != nil {
				t.Fatal(err)
			}
			trees[i] = idx.(*rtree.Tree)
		}
		for _, rel := range []topo.Relation{topo.Inside, topo.Contains, topo.Covers, topo.CoveredBy, topo.Overlap, topo.Meet} {
			prune, accept := joinTests(mbr.CandidatesSet(topo.NewSet(rel)))
			var got row
			ts, err := rtree.JoinCtx(context.Background(), trees[0], trees[1], prune, accept,
				func(a, b rtree.Hit) bool {
					got.pairs++
					got.checksum += a.OID*1000003 + b.OID
					return true
				}, rtree.JoinOptions{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			got.accesses, got.nodePairs, got.tested = ts.NodeAccesses, ts.SweepPairs+ts.NestedPairs, ts.PairTests
			name := class.String() + "/" + rel.String()
			if want := pinned[name]; got != want {
				t.Errorf("%s: %+v (%d node pairs swept), pinned %+v", name, got, ts.SweepPairs, want)
			}
		}
	}
}

// TestJoinMatchesBruteForce: the filter-level join of two medium packed
// R*-trees returns exactly the pairs whose MBR configuration an
// all-pairs scan finds in the relation set's Table 1 row — an oracle
// that runs neither the engine nor the pair test — for every relation
// but disjoint and two sets, under the contiguous and the Section 7
// tables, and for a self-join that keeps its (o, o) pairs. One right
// object in ten copies its left namesake or grows it from the same low
// corner, so equal MBRs and level low edges occur across the trees too.
func TestJoinMatchesBruteForce(t *testing.T) {
	const n = 2000
	var (
		rects [2][]geom.Rect // by OID − 1
		idx   [2]index.Index
	)
	for i, seed := range []int64{7, 8} {
		items := workload.NewDataset(workload.Medium, n, 0, seed).Items
		rects[i] = make([]geom.Rect, n)
		for k, it := range items {
			if i == 1 && it.OID%20 == 0 {
				items[k].Rect = rects[0][it.OID-1]
			} else if i == 1 && it.OID%20 == 10 {
				items[k].Rect = rects[0][it.OID-1]
				items[k].Rect.Max = items[k].Rect.Max.Add(geom.Point{X: 1, Y: 1})
			}
			rects[i][it.OID-1] = items[k].Rect
		}
		tr, err := index.NewPacked(index.KindRStar, index.PaperPageSize, items)
		if err != nil {
			t.Fatal(err)
		}
		idx[i] = tr
	}
	// configs(l, r)[a*n+b] is the configuration index of l[a] against r[b].
	configs := func(l, r []geom.Rect) []uint8 {
		out := make([]uint8, 0, n*n)
		for _, a := range l {
			for _, b := range r {
				out = append(out, uint8(mbr.ConfigOf(a, b).Index()))
			}
		}
		return out
	}
	check := func(label string, left, right index.Index, cfgs []uint8, rels topo.Set, opts JoinOptions) {
		t.Helper()
		res, err := JoinTopological(left, right, rels, opts)
		if err != nil {
			t.Fatal(err)
		}
		cands := mbr.CandidatesSet(rels)
		if opts.NonContiguous {
			cands = mbr.CandidatesNonContiguousSet(rels)
		}
		got := make([]bool, n*n)
		for _, p := range res.Pairs {
			k := (p.LeftOID-1)*n + p.RightOID - 1
			if got[k] {
				t.Fatalf("%s: pair (%d, %d) emitted twice", label, p.LeftOID, p.RightOID)
			}
			got[k] = true
		}
		want := 0
		for k, c := range cfgs {
			in := cands.Has(mbr.ConfigFromIndex(int(c)))
			if in {
				want++
			}
			if in != got[k] {
				t.Fatalf("%s: pair (%d, %d) in configuration %v: joined %v, Table 1 says %v",
					label, k/n+1, k%n+1, mbr.ConfigFromIndex(int(c)), got[k], in)
			}
		}
		if want == 0 {
			t.Errorf("%s: no pair qualifies; the check proves nothing", label)
		}
	}

	cross := configs(rects[0], rects[1])
	sets := []topo.Set{topo.NewSet(topo.Inside, topo.CoveredBy), topo.NewSet(topo.Contains, topo.Equal)}
	for _, r := range topo.All() {
		if r != topo.Disjoint {
			sets = append(sets, topo.NewSet(r))
		}
	}
	for _, nonContig := range []bool{false, true} {
		for _, rels := range sets {
			check(fmt.Sprintf("%v, non-contiguous %v", rels, nonContig), idx[0], idx[1], cross, rels, JoinOptions{NonContiguous: nonContig})
		}
	}
	check("self-join, covered_by", idx[0], idx[0], configs(rects[0], rects[0]), topo.NewSet(topo.CoveredBy), JoinOptions{KeepSelfPairs: true})
}
