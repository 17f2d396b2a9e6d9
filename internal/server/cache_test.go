package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"mbrtopo/internal/geom"
	"mbrtopo/internal/index"
	"mbrtopo/internal/topo"
	"mbrtopo/internal/workload"
)

// rawQuery returns one /v1/query response body verbatim — the
// differential tests compare cached and uncached servers byte for
// byte, so no decoding may sit in between.
func rawQuery(t *testing.T, base string, req QueryRequest) []byte {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query returned HTTP %d", resp.StatusCode)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestCacheDifferential runs the same request sequence — every
// relation on all three access methods, with mutations interleaved —
// against a caching and a cache-free server over identical data. Every
// response must be byte-identical: hits replay the stored answer, and
// mutations must make stale entries unreachable immediately.
func TestCacheDifferential(t *testing.T) {
	kinds := index.AllKinds()
	d := workload.NewDataset(workload.Medium, 1200, 8, 1995)

	cached := New(Config{CacheSize: 256})
	plain := New(Config{})
	for _, kind := range kinds {
		for _, srv := range []*Server{cached, plain} {
			if _, err := srv.AddIndex(IndexSpec{Name: kindName(kind), Kind: kind, PageSize: 512}, d.Items); err != nil {
				t.Fatal(err)
			}
		}
	}
	tsCached := httptest.NewServer(cached.Handler())
	defer tsCached.Close()
	tsPlain := httptest.NewServer(plain.Handler())
	defer tsPlain.Close()

	// mutate applies the same mutation to the same index on both
	// servers (bumping the cached server's generation).
	mutate := func(name string, ins bool, r geom.Rect, oid uint64) {
		for _, srv := range []*Server{cached, plain} {
			inst, err := srv.instance(name)
			if err != nil {
				t.Fatal(err)
			}
			if ins {
				err = inst.Insert(r, oid)
			} else {
				err = inst.Delete(r, oid)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
	}

	check := func(req QueryRequest, label string) {
		t.Helper()
		// Twice against the caching server: the second answer comes from
		// the cache and must still match the uncached server exactly.
		// The uncached server answers every time from its tree, copying
		// what its leaves have rendered before and rendering the rest.
		want := sameBodyEveryTime(t, tsPlain.URL+"/v1/query", req, false)
		if got := rawQuery(t, tsCached.URL, req); !bytes.Equal(got, want) {
			t.Fatalf("%s: miss-path response diverges\ncached: %s\nplain:  %s", label, got, want)
		}
		if got := rawQuery(t, tsCached.URL, req); !bytes.Equal(got, want) {
			t.Fatalf("%s: hit-path response diverges\ncached: %s\nplain:  %s", label, got, want)
		}
	}

	ref := d.Queries[0]
	refWire := []float64{ref.Min.X, ref.Min.Y, ref.Max.X, ref.Max.Y}
	for _, kind := range kinds {
		name := kindName(kind)
		for _, rel := range topo.All() {
			check(QueryRequest{Index: name, Relations: []string{rel.String()}, Ref: refWire},
				fmt.Sprintf("%s/%s", name, rel))
		}
		// Conjunctions take the two-term descent on both servers.
		check(QueryRequest{
			Index: name, Relations: []string{"not_disjoint"}, Ref: refWire,
			Relations2: []string{"overlap", "inside"},
			Ref2:       []float64{ref.Min.X - 40, ref.Min.Y - 40, ref.Max.X + 40, ref.Max.Y + 40},
		}, name+"/conjunction")

		// Interleaved mutations: cached answers for the old generation
		// must become unreachable on both the insert and the delete.
		mutate(name, true, geom.R(ref.Min.X+1, ref.Min.Y+1, ref.Max.X-1, ref.Max.Y-1), 900001)
		for _, rel := range topo.All() {
			check(QueryRequest{Index: name, Relations: []string{rel.String()}, Ref: refWire},
				fmt.Sprintf("%s/%s after insert", name, rel))
		}
		mutate(name, false, geom.R(ref.Min.X+1, ref.Min.Y+1, ref.Max.X-1, ref.Max.Y-1), 900001)
		check(QueryRequest{Index: name, Relations: []string{"not_disjoint"}, Ref: refWire},
			name+" after delete")
	}

	hits, misses, _ := cached.cache.counters()
	if hits == 0 || misses == 0 {
		t.Fatalf("differential run recorded hits=%d misses=%d; want both > 0", hits, misses)
	}
}

// TestCacheCountersAndMetrics pins the hit/miss/invalidation
// behaviour to the counters and their /metrics exposition.
func TestCacheCountersAndMetrics(t *testing.T) {
	srv, ts, d := newTestServer(t, Config{CacheSize: 8}, 800, index.KindRStar)
	ref := d.Queries[0]
	req := QueryRequest{
		Index:     "rstar",
		Relations: []string{"overlap"},
		Ref:       []float64{ref.Min.X, ref.Min.Y, ref.Max.X, ref.Max.Y},
	}
	assertCounters := func(wantHits, wantMisses uint64) {
		t.Helper()
		hits, misses, _ := srv.cache.counters()
		if hits != wantHits || misses != wantMisses {
			t.Fatalf("counters hits=%d misses=%d, want %d/%d", hits, misses, wantHits, wantMisses)
		}
	}

	first := rawQuery(t, ts.URL, req)
	assertCounters(0, 1)
	if got := rawQuery(t, ts.URL, req); !bytes.Equal(got, first) {
		t.Fatalf("hit response differs from miss response")
	}
	assertCounters(1, 1)

	// A mutation changes the generation: same question, fresh miss.
	inst, err := srv.instance("rstar")
	if err != nil {
		t.Fatal(err)
	}
	gen := inst.Generation()
	if err := inst.Insert(geom.R(1, 1, 2, 2), 900002); err != nil {
		t.Fatal(err)
	}
	if inst.Generation() != gen+1 {
		t.Fatalf("generation %d after insert, want %d", inst.Generation(), gen+1)
	}
	rawQuery(t, ts.URL, req)
	assertCounters(1, 2)

	var rec bytes.Buffer
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.Copy(&rec, resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	for _, metric := range []string{"topod_cache_hits_total", "topod_cache_misses_total", "topod_cache_evictions_total", "topod_plan_shortcircuit_total"} {
		if !strings.Contains(rec.String(), metric) {
			t.Fatalf("/metrics lacks %s", metric)
		}
	}
}

// TestCacheHitExplain: the opt-in explain field reports a replay, and
// the rest of the stats line is the stored traversal's.
func TestCacheHitExplain(t *testing.T) {
	_, ts, d := newTestServer(t, Config{CacheSize: 8}, 600, index.KindRStar)
	ref := d.Queries[1]
	req := QueryRequest{
		Index:     "rstar",
		Relations: []string{"overlap"},
		Ref:       []float64{ref.Min.X, ref.Min.Y, ref.Max.X, ref.Max.Y},
		Explain:   true,
	}
	_, coldStats, _ := postQuery(t, ts.URL, req)
	if coldStats.Explain != "plan=single" {
		t.Fatalf("cold explain = %q, want plan=single", coldStats.Explain)
	}
	_, hitStats, _ := postQuery(t, ts.URL, req)
	if hitStats.Explain != "cache=hit plan=single" {
		t.Fatalf("hit explain = %q, want cache=hit plan=single", hitStats.Explain)
	}
	if hitStats.NodeAccesses != coldStats.NodeAccesses || hitStats.Candidates != coldStats.Candidates {
		t.Fatalf("hit stats %+v diverge from cold stats %+v", hitStats, coldStats)
	}
}

// TestCacheEviction: a capacity-2 cache under three distinct queries
// evicts from the cold end.
func TestCacheEviction(t *testing.T) {
	srv, ts, d := newTestServer(t, Config{CacheSize: 2}, 400, index.KindRTree)
	for i := 0; i < 3; i++ {
		ref := d.Queries[i]
		rawQuery(t, ts.URL, QueryRequest{
			Index:     "rtree",
			Relations: []string{"overlap"},
			Ref:       []float64{ref.Min.X, ref.Min.Y, ref.Max.X, ref.Max.Y},
		})
	}
	if _, _, evictions := srv.cache.counters(); evictions == 0 {
		t.Fatal("capacity-2 cache absorbed 3 distinct queries without evicting")
	}
	// The oldest entry is gone: asking again is a miss, not a stale hit.
	ref := d.Queries[0]
	_, misses0, _ := srv.cache.counters()
	rawQuery(t, ts.URL, QueryRequest{
		Index:     "rtree",
		Relations: []string{"overlap"},
		Ref:       []float64{ref.Min.X, ref.Min.Y, ref.Max.X, ref.Max.Y},
	})
	if _, misses, _ := srv.cache.counters(); misses != misses0+1 {
		t.Fatalf("evicted entry served a hit (misses %d -> %d)", misses0, misses)
	}
}

// TestConjunctionWire pins the conjunction path end to end: matches
// equal the intersection of the two single-term answers, contradictory
// terms short-circuit with zero page reads, and half a conjunction is
// rejected.
func TestConjunctionWire(t *testing.T) {
	_, ts, d := newTestServer(t, Config{}, 1000, index.KindRStar)
	ref := d.Queries[0]
	grown := geom.R(ref.Min.X-30, ref.Min.Y-30, ref.Max.X+30, ref.Max.Y+30)
	refWire := []float64{ref.Min.X, ref.Min.Y, ref.Max.X, ref.Max.Y}
	grownWire := []float64{grown.Min.X, grown.Min.Y, grown.Max.X, grown.Max.Y}

	first, _, _ := postQuery(t, ts.URL, QueryRequest{Index: "rstar", Relations: []string{"not_disjoint"}, Ref: refWire})
	second, _, _ := postQuery(t, ts.URL, QueryRequest{Index: "rstar", Relations: []string{"inside"}, Ref: grownWire})
	inSecond := map[uint64]bool{}
	for _, m := range second {
		inSecond[m.OID] = true
	}
	var want int
	for _, m := range first {
		if inSecond[m.OID] {
			want++
		}
	}
	conj := QueryRequest{
		Index: "rstar", Relations: []string{"not_disjoint"}, Ref: refWire,
		Relations2: []string{"inside"}, Ref2: grownWire,
	}
	sameBodyEveryTime(t, ts.URL+"/v1/query", conj, false)
	both, _, _ := postQuery(t, ts.URL, conj)
	if len(both) != want {
		t.Fatalf("conjunction returned %d matches, intersection of the terms has %d", len(both), want)
	}

	// inside q1 AND contains q2 with q1, q2 disjoint: impossible.
	far := []float64{grown.Max.X + 100, grown.Max.Y + 100, grown.Max.X + 110, grown.Max.Y + 110}
	none, stats, _ := postQuery(t, ts.URL, QueryRequest{
		Index: "rstar", Relations: []string{"inside"}, Ref: refWire,
		Relations2: []string{"contains"}, Ref2: far,
		Explain: true,
	})
	if len(none) != 0 || stats.NodeAccesses != 0 {
		t.Fatalf("contradictory conjunction read %d pages, emitted %d", stats.NodeAccesses, len(none))
	}
	if stats.Explain != "plan=conjunction short-circuit refs=disjoint" {
		t.Fatalf("short-circuit explain = %q", stats.Explain)
	}
	conj.Explain = true
	if _, stats, _ := postQuery(t, ts.URL, conj); stats.Explain != "plan=conjunction terms=2" {
		t.Fatalf("executed conjunction explain = %q", stats.Explain)
	}

	body, _ := json.Marshal(QueryRequest{Index: "rstar", Relations: []string{"overlap"}, Ref: refWire, Relations2: []string{"overlap"}})
	resp, err := http.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("half a conjunction got HTTP %d, want 400", resp.StatusCode)
	}
}
