package query

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"mbrtopo/internal/geom"
	"mbrtopo/internal/index"
	"mbrtopo/internal/mbr"
	"mbrtopo/internal/rtree"
	"mbrtopo/internal/shard"
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
		return s == b
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

// adoptFlat returns the tree adopted from idx's MBRFLAT1 image, written
// and read back through the real serialisation.
func adoptFlat(t *testing.T, idx index.Index, kind index.Kind, pageSize int) index.Index {
	t.Helper()
	var buf bytes.Buffer
	if err := index.WriteFlat(idx, &buf, 1); err != nil {
		t.Fatal(err)
	}
	image, err := rtree.OpenFlat(&buf)
	if err != nil {
		t.Fatal(err)
	}
	flat, err := index.Adopt(kind, pageSize, image)
	if err != nil {
		t.Fatal(err)
	}
	return flat
}

// samePaths runs one descent's tests both ways on a tree — through its
// window entry point (SearchPreds, the path descend takes) and through
// SearchHits with the tests' Has — and fails unless the two yield the
// same hits, leaf positions included, in the same order, with equal
// TraversalStats.
func samePaths(t *testing.T, label string, idx index.Index, node, leaf mbr.Pred) {
	t.Helper()
	var byWindow, byFunc []rtree.Hit
	ctx := context.Background()
	ws, err := idx.SearchPreds(ctx, node, leaf, func(l rtree.Leaf) bool {
		for i := range l.Len() {
			byWindow = append(byWindow, l.Hit(i))
		}
		return true
	})
	if err != nil {
		t.Fatalf("%s: SearchPreds: %v", label, err)
	}
	fs, err := idx.SearchHits(ctx, node.Has, leaf.Has, func(h rtree.Hit) bool { byFunc = append(byFunc, h); return true })
	if err != nil {
		t.Fatalf("%s: SearchHits: %v", label, err)
	}
	same := slices.Equal(byWindow, byFunc)
	if _, tiled := idx.(*shard.Sharded); tiled {
		// Concurrent tiles interleave their leaves differently each
		// time: compare the hits as a multiset.
		var sets [2][]string
		for k, hits := range [][]rtree.Hit{byWindow, byFunc} {
			for _, h := range hits {
				sets[k] = append(sets[k], fmt.Sprint(h.OID, h.Rect))
			}
			slices.Sort(sets[k])
		}
		same = slices.Equal(sets[0], sets[1])
	}
	if !same || ws != fs {
		t.Fatalf("%s: the window path yields %d hits, %+v; the func path %d, %+v", label, len(byWindow), ws, len(byFunc), fs)
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

func TestQueryPointErrors(t *testing.T) {
	sc := buildScenario(t, 2, 30)
	noStore := &Processor{Idx: sc.indexes["R-tree"]}
	if _, err := noStore.QueryPoint(geom.Point{}); err == nil {
		t.Error("point query without store accepted")
	}
	proc := &Processor{Idx: sc.indexes["R-tree"], Objects: sc.objects}
	if _, err := proc.QueryPoint(geom.Point{}, geom.PointOutside); err == nil {
		t.Error("outside as wanted location accepted")
	}
}
