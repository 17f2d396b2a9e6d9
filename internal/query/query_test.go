package query

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"mbrtopo/internal/geom"
	"mbrtopo/internal/index"
	"mbrtopo/internal/mbr"
	"mbrtopo/internal/topo"
	"mbrtopo/internal/workload"
)

// scenario is a populated world: objects with exact geometry, their
// MBRs loaded into all three access methods.
type scenario struct {
	objects MapStore
	rects   map[uint64]geom.Rect
	indexes map[string]index.Index
}

func buildScenario(t *testing.T, seed int64, n int) *scenario {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	sc := &scenario{
		objects: MapStore{},
		rects:   map[uint64]geom.Rect{},
		indexes: map[string]index.Index{},
	}
	for oid := uint64(1); oid <= uint64(n); oid++ {
		w := 1 + rng.Float64()*6
		h := 1 + rng.Float64()*6
		x := rng.Float64() * (100 - w)
		y := rng.Float64() * (100 - h)
		r := geom.R(x, y, x+w, y+h)
		pg := workload.PolygonInRect(rng, r, 5+rng.Intn(6))
		if err := pg.Validate(); err != nil {
			t.Fatalf("generated invalid polygon: %v", err)
		}
		sc.objects[oid] = pg
		sc.rects[oid] = pg.Bounds()
	}
	for _, kind := range index.AllKinds() {
		idx, err := index.NewWithPageSize(kind, 512)
		if err != nil {
			t.Fatal(err)
		}
		for oid, r := range sc.rects {
			if err := idx.Insert(r, oid); err != nil {
				t.Fatalf("%s: %v", kind, err)
			}
		}
		sc.indexes[kind.String()] = idx
	}
	return sc
}

func (sc *scenario) bruteForce(rels topo.Set, ref geom.Polygon) []uint64 {
	var out []uint64
	for oid, pg := range sc.objects {
		if rels.Has(geom.Relate(pg, ref)) {
			out = append(out, oid)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// bruteFilter returns the objects whose MBR configuration is
// admissible for the relation set, sorted by id — the ground truth for
// the filter step.
func (sc *scenario) bruteFilter(rels topo.Set, refMBR geom.Rect) []uint64 {
	cands := mbr.CandidatesSet(rels)
	var out []uint64
	for oid, r := range sc.rects {
		if cands.Has(mbr.ConfigOf(r, refMBR)) {
			out = append(out, oid)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// streamEqualsBatch checks the one-descent contract for one filter
// query: Stream, collected and sorted by id, delivers exactly
// QuerySetMBR's matches — with, where a leaf had earned it, the
// rectangle's wire text and nothing else in Text — and both report the
// same pages read and the same candidate count. It returns the batch
// result for further comparisons.
func streamEqualsBatch(t *testing.T, label string, p *Processor, rels topo.Set, refMBR geom.Rect) Result {
	t.Helper()
	batch, err := p.QuerySetMBR(rels, refMBR)
	if err != nil {
		t.Fatalf("%s: QuerySetMBR: %v", label, err)
	}
	var streamed []Match
	stats, err := p.Stream(context.Background(), rels, refMBR, 0, func(m Match) bool {
		streamed = append(streamed, m)
		return true
	})
	if err != nil {
		t.Fatalf("%s: Stream: %v", label, err)
	}
	sort.Slice(streamed, func(i, j int) bool { return streamed[i].OID < streamed[j].OID })
	if !slices.EqualFunc(streamed, batch.Matches, func(s, b Match) bool {
		return s.OID == b.OID && s.Rect == b.Rect && b.Text == "" &&
			(s.Text == "" || s.Text == string(s.Rect.AppendWire(nil)))
	}) {
		t.Fatalf("%s: Stream delivered %d matches, QuerySetMBR %d (or different ones)",
			label, len(streamed), len(batch.Matches))
	}
	if stats.NodeAccesses != batch.Stats.NodeAccesses || stats.Candidates != batch.Stats.Candidates {
		t.Fatalf("%s: Stream stats %+v, QuerySetMBR stats %+v", label, stats, batch.Stats)
	}
	return batch
}

func oids(ms []Match) []uint64 {
	out := make([]uint64, len(ms))
	for i, m := range ms {
		out[i] = m.OID
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func eqU64(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestQueryAllRelationsAllTrees is the end-to-end correctness test of
// the 4-step strategy: for every relation and every access method, the
// full pipeline (filter + refinement) must return exactly the
// brute-force answer, and the filter step must retrieve exactly the
// objects whose MBR configuration is admissible (no false misses, no
// spurious candidates).
func TestQueryAllRelationsAllTrees(t *testing.T) {
	sc := buildScenario(t, 41, 500)
	rng := rand.New(rand.NewSource(8))

	// References: a few stored objects plus engineered ones that
	// realise the rare relations (equal, covers, contains).
	refs := []geom.Polygon{
		sc.objects[1],
		sc.objects[2].ScaleAbout(sc.objects[2].Bounds().Center(), 1.2),
		workload.PolygonInRect(rng, geom.R(20, 20, 60, 60), 8),
		workload.PolygonInRect(rng, geom.R(48, 48, 52, 52), 6),
	}
	for name, idx := range sc.indexes {
		proc := &Processor{Idx: idx, Objects: sc.objects}
		for _, ref := range refs {
			for _, rel := range topo.All() {
				res, err := proc.Query(rel, ref)
				if err != nil {
					t.Fatalf("%s %v: %v", name, rel, err)
				}
				want := sc.bruteForce(topo.NewSet(rel), ref)
				if !eqU64(oids(res.Matches), want) {
					t.Fatalf("%s %v: got %d matches, want %d", name, rel, len(res.Matches), len(want))
				}
				wantFilter := sc.bruteFilter(topo.NewSet(rel), ref.Bounds())
				if res.Stats.Candidates != len(wantFilter) {
					t.Fatalf("%s %v: filter retrieved %d candidates, want %d",
						name, rel, res.Stats.Candidates, len(wantFilter))
				}
				if res.Stats.NodeAccesses == 0 {
					t.Fatalf("%s %v: no node accesses counted", name, rel)
				}
				// The streamed and the materialised filter step are one
				// descent: same objects as the oracle, same pages as
				// the refined query above.
				filt := streamEqualsBatch(t, fmt.Sprintf("%s %v", name, rel), proc, topo.NewSet(rel), ref.Bounds())
				if !eqU64(oids(filt.Matches), wantFilter) {
					t.Fatalf("%s %v: filter step differs from the brute-force oracle", name, rel)
				}
				if filt.Stats.NodeAccesses != res.Stats.NodeAccesses {
					t.Fatalf("%s %v: filter-only read %d pages, the refined query %d",
						name, rel, filt.Stats.NodeAccesses, res.Stats.NodeAccesses)
				}
			}
		}
	}
}

// TestQueryStatsAccounting: candidates = direct accepts + refinement
// tests; results = candidates − false hits.
func TestQueryStatsAccounting(t *testing.T) {
	sc := buildScenario(t, 5, 300)
	proc := &Processor{Idx: sc.indexes["R-tree"], Objects: sc.objects}
	ref := sc.objects[3]
	for _, rel := range topo.All() {
		res, err := proc.Query(rel, ref)
		if err != nil {
			t.Fatal(err)
		}
		s := res.Stats
		if s.Candidates != s.DirectAccepts+s.RefinementTests {
			t.Errorf("%v: %d candidates != %d direct + %d refined",
				rel, s.Candidates, s.DirectAccepts, s.RefinementTests)
		}
		if len(res.Matches) != s.Candidates-s.FalseHits {
			t.Errorf("%v: %d matches != %d candidates − %d false hits",
				rel, len(res.Matches), s.Candidates, s.FalseHits)
		}
	}
}

// TestDisjunctionIn: the cadastral "in" query (Section 5) returns the
// union of inside and covered_by, and its filter cost equals the
// covered_by filter cost (the inside candidates are a subset).
func TestDisjunctionIn(t *testing.T) {
	sc := buildScenario(t, 11, 400)
	ref := workload.PolygonInRect(rand.New(rand.NewSource(2)), geom.R(25, 25, 75, 75), 9)
	for name, idx := range sc.indexes {
		proc := &Processor{Idx: idx, Objects: sc.objects}
		res, err := proc.QuerySet(topo.In, ref)
		if err != nil {
			t.Fatal(err)
		}
		want := sc.bruteForce(topo.In, ref)
		if !eqU64(oids(res.Matches), want) {
			t.Fatalf("%s: in-query got %d, want %d", name, len(res.Matches), len(want))
		}
		cb, err := proc.Query(topo.CoveredBy, ref)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.Candidates != cb.Stats.Candidates {
			t.Errorf("%s: in retrieves %d candidates but covered_by retrieves %d (paper: identical)",
				name, res.Stats.Candidates, cb.Stats.Candidates)
		}
		if res.Stats.NodeAccesses != cb.Stats.NodeAccesses {
			t.Errorf("%s: in costs %d accesses, covered_by %d (paper: identical)",
				name, res.Stats.NodeAccesses, cb.Stats.NodeAccesses)
		}
	}
}

// TestDisjunctionDirectAccept: a disjunction covering every relation a
// configuration admits should accept without refinement; the full
// disjunction of all eight relations returns everything with zero
// refinement tests.
func TestDisjunctionDirectAccept(t *testing.T) {
	sc := buildScenario(t, 13, 200)
	proc := &Processor{Idx: sc.indexes["R*-tree"], Objects: sc.objects}
	ref := sc.objects[7]
	res, err := proc.QuerySet(topo.FullSet(), ref)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) != len(sc.objects) {
		t.Fatalf("full disjunction returned %d of %d", len(res.Matches), len(sc.objects))
	}
	if res.Stats.RefinementTests != 0 {
		t.Fatalf("full disjunction ran %d refinement tests", res.Stats.RefinementTests)
	}
}

// TestConjunction compares two-reference conjunctions against brute
// force, including the Table 4 short-circuit.
func TestConjunction(t *testing.T) {
	sc := buildScenario(t, 19, 400)
	rng := rand.New(rand.NewSource(3))
	// Overlapping references somewhere in the middle of the world.
	q1 := workload.PolygonInRect(rng, geom.R(20, 20, 70, 70), 8)
	q2 := workload.PolygonInRect(rng, geom.R(40, 40, 90, 90), 8)
	// And a disjoint pair for the short-circuit.
	q3 := workload.PolygonInRect(rng, geom.R(0, 0, 15, 15), 7)

	proc := &Processor{Idx: sc.indexes["R-tree"], Objects: sc.objects}
	brute := func(r1 topo.Relation, a geom.Polygon, r2 topo.Relation, b geom.Polygon) []uint64 {
		var out []uint64
		for oid, pg := range sc.objects {
			if geom.Relate(pg, a) == r1 && geom.Relate(pg, b) == r2 {
				out = append(out, oid)
			}
		}
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		return out
	}
	for _, r1 := range topo.All() {
		for _, r2 := range []topo.Relation{topo.Overlap, topo.Inside, topo.Disjoint, topo.Meet} {
			res, err := proc.QueryConjunction(r1, q1, r2, q2)
			if err != nil {
				t.Fatal(err)
			}
			want := brute(r1, q1, r2, q2)
			if !eqU64(oids(res.Matches), want) {
				t.Fatalf("%v ∧ %v: got %d, want %d", r1, r2, len(res.Matches), len(want))
			}
			if res.Stats.ShortCircuited && len(want) != 0 {
				t.Fatalf("%v ∧ %v: short-circuited a non-empty result", r1, r2)
			}
		}
	}
	// The paper's example: inside q3 ∧ overlap q1 with q3 disjoint from
	// q1 must short-circuit (q3 is far from q1).
	if geom.Relate(q3, q1) != topo.Disjoint {
		t.Fatal("fixture: q3 should be disjoint from q1")
	}
	res, err := proc.QueryConjunction(topo.Inside, q3, topo.Overlap, q1)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.ShortCircuited || len(res.Matches) != 0 || res.Stats.NodeAccesses != 0 {
		t.Fatalf("expected zero-IO short circuit, got %+v", res.Stats)
	}
}

// TestNonCrispRetrieval stores slightly enlarged MBRs (the Section 6
// imprecision scenario) and checks that the NonCrisp processor still
// finds every answer, while refining everything.
func TestNonCrispRetrieval(t *testing.T) {
	sc := buildScenario(t, 29, 400)
	rng := rand.New(rand.NewSource(7))
	// Rebuild indexes with enlarged (non-crisp) MBRs.
	enlarged := map[uint64]geom.Rect{}
	for oid, r := range sc.rects {
		e := func() float64 { return rng.Float64() * 1e-7 }
		enlarged[oid] = geom.Rect{
			Min: geom.Point{X: r.Min.X - e(), Y: r.Min.Y - e()},
			Max: geom.Point{X: r.Max.X + e(), Y: r.Max.Y + e()},
		}
	}
	for _, kind := range index.AllKinds() {
		idx, err := index.NewWithPageSize(kind, 512)
		if err != nil {
			t.Fatal(err)
		}
		for oid, r := range enlarged {
			if err := idx.Insert(r, oid); err != nil {
				t.Fatal(err)
			}
		}
		proc := &Processor{Idx: idx, Objects: sc.objects, NonCrisp: true}
		ref := sc.objects[11]
		for _, rel := range topo.All() {
			res, err := proc.Query(rel, ref)
			if err != nil {
				t.Fatal(err)
			}
			want := sc.bruteForce(topo.NewSet(rel), ref)
			if !eqU64(oids(res.Matches), want) {
				t.Fatalf("%v non-crisp %v: got %d, want %d", kind, rel, len(res.Matches), len(want))
			}
			if res.Stats.DirectAccepts != 0 {
				t.Fatalf("%v non-crisp %v: direct accepts must be disabled", kind, rel)
			}
		}
	}
}

// TestQueryErrors covers the error paths.
func TestQueryErrors(t *testing.T) {
	sc := buildScenario(t, 1, 50)
	proc := &Processor{Idx: sc.indexes["R-tree"], Objects: sc.objects}
	if _, err := proc.Query(topo.Equal, geom.Polygon{{X: 0, Y: 0}, {X: 1, Y: 0}}); err == nil {
		t.Error("invalid reference accepted")
	}
	if _, err := proc.QuerySetMBR(topo.Set(0), geom.R(0, 0, 1, 1)); err == nil {
		t.Error("empty relation set accepted")
	}
	if _, err := proc.QueryMBR(topo.Equal, geom.R(1, 1, 1, 2)); err == nil {
		t.Error("degenerate reference MBR accepted")
	}
	bad := &Processor{Idx: sc.indexes["R-tree"], Objects: MapStore{}}
	if _, err := bad.Query(topo.Overlap, sc.objects[1]); err == nil {
		t.Error("missing object in store not reported")
	}
	noObj := &Processor{Idx: sc.indexes["R-tree"]}
	if _, err := noObj.QueryConjunction(topo.Overlap, sc.objects[1], topo.Meet, sc.objects[2]); err == nil {
		t.Error("conjunction without object store accepted")
	}
}

// TestFilterOnlyMode: without an ObjectStore, Query returns the raw
// filter candidates (the paper's experimental mode).
func TestFilterOnlyMode(t *testing.T) {
	sc := buildScenario(t, 3, 300)
	for name, idx := range sc.indexes {
		proc := &Processor{Idx: idx}
		refMBR := geom.R(30, 30, 55, 50)
		for _, rel := range topo.All() {
			res, err := proc.QueryMBR(rel, refMBR)
			if err != nil {
				t.Fatal(err)
			}
			if want := len(sc.bruteFilter(topo.NewSet(rel), refMBR)); res.Stats.Candidates != want {
				t.Fatalf("%s %v: %d candidates, want %d", name, rel, res.Stats.Candidates, want)
			}
			if res.Stats.RefinementTests != 0 {
				t.Fatalf("%s: filter-only mode refined", name)
			}
		}
	}
}
