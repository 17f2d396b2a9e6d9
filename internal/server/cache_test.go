package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"mbrtopo/internal/geom"
	"mbrtopo/internal/index"
	"mbrtopo/internal/mbr"
	"mbrtopo/internal/query"
	"mbrtopo/internal/topo"
	"mbrtopo/internal/wal"
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

// answerSet is a response body as the hit contract compares it: the
// match lines as a sorted multiset, and the trailer's candidates count.
func answerSet(t *testing.T, body []byte) ([]string, int) {
	t.Helper()
	lines := strings.Split(strings.TrimSuffix(string(body), "\n"), "\n")
	var trailer QueryLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &trailer); err != nil || trailer.Stats == nil {
		t.Fatalf("answer has no stats trailer: %s", body)
	}
	matches := lines[:len(lines)-1]
	sort.Strings(matches)
	return matches, trailer.Stats.Candidates
}

// cacheRow is one way of serving an index for the cache differential:
// the cached server answers from its cache wherever the invalidation
// rule lets it, the plain one from its tree every time, and write
// commits the same records to both — on a replica through its primary,
// so that they arrive through the follower's Apply.
type cacheRow struct {
	name                string
	cached              *Server
	cachedURL, plainURL string
	write               func(recs []wal.Record)
	// rebootstrap, on a replica, forces a fresh bootstrap from the
	// primary; the differential runs it as its last step.
	rebootstrap func()
}

// cacheRows serves items as "main" in each tree kind, on a durable
// R*-tree that checkpoints as it goes, and on a replica of a durable
// R-tree.
func cacheRows(t *testing.T, items []index.Item) []cacheRow {
	local := func(name string, spec IndexSpec, durable bool) cacheRow {
		row := cacheRow{name: name}
		var insts []*Instance
		for _, size := range []int{256, 0} {
			srv := New(Config{CacheSize: size})
			if durable {
				spec.Dir = t.TempDir()
			}
			inst, err := srv.AddIndex(spec, items)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { srv.Close() })
			ts := httptest.NewServer(srv.Handler())
			t.Cleanup(ts.Close)
			insts = append(insts, inst)
			if size > 0 {
				row.cached, row.cachedURL = srv, ts.URL
			} else {
				row.plainURL = ts.URL
			}
		}
		row.write = func(recs []wal.Record) {
			for _, inst := range insts {
				if err := inst.mutate(recs, nil); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
			}
		}
		return row
	}
	var rows []cacheRow
	for _, kind := range index.AllKinds() {
		rows = append(rows, local(kindName(kind), IndexSpec{Name: "main", Kind: kind, PageSize: 512, Bulk: true}, false))
	}
	rows = append(rows, local("durable", IndexSpec{
		Name: "main", Kind: index.KindRStar, PageSize: 512, Bulk: true, Fsync: wal.SyncNever, CheckpointEvery: 3,
	}, true))

	psrv, pts, _ := newReplPrimary(t, 0, 3)
	pinst, _ := psrv.instance("main")
	if err := pinst.InsertBatch(items); err != nil {
		t.Fatal(err)
	}
	fsrv, fts := newCachedReplFollower(t, Config{CacheSize: 256}, pts.URL, nil, FollowConfig{})
	finst, _ := fsrv.instance("main")
	waitCaughtUp(t, psrv, fsrv)
	follower := finst.repl
	return append(rows, cacheRow{
		name: "follower", cached: fsrv, cachedURL: fts.URL, plainURL: pts.URL,
		write: func(recs []wal.Record) {
			if err := pinst.mutate(recs, nil); err != nil {
				t.Fatal(err)
			}
			waitCaughtUp(t, psrv, fsrv)
		},
		// A write the replica takes on its own puts it one record ahead
		// of its position, so the primary's next record fails Apply's
		// check and the follower bootstraps again. Before that the
		// replica's cache is filled with answers holding the stray
		// object, which the primary's far write alone evicts from no
		// entry that is not disjoint-admitting: only the bootstrap's
		// eviction keeps them from the checks that follow.
		rebootstrap: func() {
			snaps := follower.status().snapshots
			stray := geom.R(360, 340, 370, 350)
			if err := finst.Insert(stray, 990001); err != nil {
				t.Fatal(err)
			}
			for _, rel := range topo.All() {
				rawQuery(t, fts.URL, QueryRequest{Index: "main", Relations: []string{rel.String()}, Ref: wireOf(cacheWindow)})
			}
			if err := pinst.Insert(geom.R(5100, 5100, 5104, 5104), 990002); err != nil {
				t.Fatal(err)
			}
			for deadline := time.Now().Add(15 * time.Second); follower.status().snapshots == snaps; time.Sleep(5 * time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatal("the replica never bootstrapped again")
				}
			}
			waitCaughtUp(t, psrv, fsrv)
			fsrv.cache.mu.Lock()
			left := fsrv.cache.lru.Len()
			fsrv.cache.mu.Unlock()
			if left != 0 {
				t.Fatalf("%d entries outlived the bootstrap", left)
			}
		},
	})
}

// cacheWindow is the differential's query window; it lies inside the
// workload's 1000 × 1000 world.
var cacheWindow = geom.R(300, 300, 450, 420)

func wireOf(r geom.Rect) []float64 {
	w := RectToWire(r)
	return w[:]
}

// TestCacheDifferential runs one request sequence against a caching and
// a cache-free server over identical contents, in every row of
// cacheRows: all eight relations, a set, two conjunctions and two
// limits on one window, between commits inside the window, far outside
// it, on its edge (meet) and in a batch. A miss, and a hit with no
// commit since its fill, must be byte-identical to the cache-free
// answer; any other hit must hold the same set of match lines and the
// same candidates count. Some hits must have outlived a commit.
func TestCacheDifferential(t *testing.T) {
	items := workload.NewDataset(workload.Medium, 1200, 0, 1995).Items
	q := cacheWindow
	mid := q.Center()
	reqs := []QueryRequest{{Relations: []string{"not_disjoint"}, Ref: wireOf(q)}}
	for _, rel := range topo.All() {
		reqs = append(reqs, QueryRequest{Relations: []string{rel.String()}, Ref: wireOf(q)})
	}
	reqs = append(reqs,
		QueryRequest{Relations: []string{"not_disjoint"}, Ref: wireOf(q), Relations2: []string{"overlap", "inside"}, Ref2: wireOf(q.Grow(40))},
		QueryRequest{Relations: []string{"overlap"}, Ref: wireOf(q), Relations2: []string{"overlap"}, Ref2: wireOf(geom.R(mid.X, mid.Y, q.Max.X+60, q.Max.Y+60))},
		QueryRequest{Relations: []string{"not_disjoint"}, Ref: wireOf(q), Limit: 3},
		QueryRequest{Relations: []string{"inside"}, Ref: wireOf(q), Limit: 10000},
	)

	ins := func(oid uint64, r geom.Rect) wal.Record { return wal.Record{Op: wal.OpInsert, OID: oid, Rect: r} }
	del := func(oid uint64, r geom.Rect) wal.Record { return wal.Record{Op: wal.OpDelete, OID: oid, Rect: r} }
	inside := geom.R(mid.X-2, mid.Y-2, mid.X+2, mid.Y+2)
	edge := geom.R(q.Max.X, mid.Y-3, q.Max.X+6, mid.Y+3)
	far := geom.R(5000, 5000, 5004, 5004)
	victim := items[slices.IndexFunc(items, func(it index.Item) bool {
		return mbr.Candidates(topo.Inside).Has(mbr.ConfigOf(it.Rect, q))
	})]
	steps := []struct {
		name string
		recs []wal.Record
	}{
		{"insert inside", []wal.Record{ins(900001, inside)}},
		{"insert far", []wal.Record{ins(900002, far)}},
		{"insert on the edge", []wal.Record{ins(900003, edge)}},
		{"far batch", []wal.Record{ins(900004, far.Grow(1)), ins(900005, geom.R(5200, 5010, 5210, 5020))}},
		{"delete inside", []wal.Record{del(900001, inside)}},
		{"delete on the edge", []wal.Record{del(900003, edge)}},
		{"delete a stored object", []wal.Record{del(victim.OID, victim.Rect)}},
		{"delete far", []wal.Record{del(900002, far)}},
	}

	for _, row := range cacheRows(t, items) {
		commits, survived := 0, 0
		filledAt := make([]int, len(reqs))
		check := func(step string) {
			t.Helper()
			for i, req := range reqs {
				req.Index = "main"
				want := rawQuery(t, row.plainURL, req)
				for range 2 {
					before := hitsOf(row.cached)
					got := rawQuery(t, row.cachedURL, req)
					hit := hitsOf(row.cached) > before
					if !hit {
						filledAt[i] = commits
					}
					if !hit || filledAt[i] == commits {
						if !bytes.Equal(got, want) {
							t.Fatalf("%s, %s: %+v (hit %v) diverges\ncached: %s\nplain:  %s", row.name, step, req, hit, got, want)
						}
						continue
					}
					survived++
					gotLines, gotCands := answerSet(t, got)
					wantLines, wantCands := answerSet(t, want)
					if gotCands != wantCands || !slices.Equal(gotLines, wantLines) {
						t.Fatalf("%s, %s: %+v: a hit filled %d commits ago holds another answer\ncached: %s\nplain:  %s",
							row.name, step, req, commits-filledAt[i], got, want)
					}
				}
			}
		}
		check("before any commit")
		for _, st := range steps {
			row.write(st.recs)
			commits++
			check("after " + st.name)
		}
		if row.rebootstrap != nil {
			row.rebootstrap()
			commits += 2
			check("after a bootstrap")
		}
		if survived == 0 {
			t.Errorf("%s: no hit outlived a commit", row.name)
		}
		if row.cached.cache.invalidations.Load() == 0 {
			t.Errorf("%s: no commit invalidated an entry", row.name)
		}
	}
}

func hitsOf(s *Server) uint64 {
	hits, _, _ := s.cache.counters()
	return hits
}

// TestCacheCountersAndMetrics pins the hit/miss/invalidation
// behaviour to the counters and their /metrics exposition: an insert
// far from the window leaves the next request a hit, an insert inside
// it makes it a miss that counts one invalidation.
func TestCacheCountersAndMetrics(t *testing.T) {
	srv, ts, d := newTestServer(t, Config{CacheSize: 8}, 800, index.KindRStar)
	ref := d.Queries[0]
	req := QueryRequest{
		Index:     "rstar",
		Relations: []string{"overlap"},
		Ref:       []float64{ref.Min.X, ref.Min.Y, ref.Max.X, ref.Max.Y},
	}
	assertCounters := func(wantHits, wantMisses, wantInvalidations uint64) {
		t.Helper()
		hits, misses, _ := srv.cache.counters()
		if inv := srv.cache.invalidations.Load(); hits != wantHits || misses != wantMisses || inv != wantInvalidations {
			t.Fatalf("counters hits=%d misses=%d invalidations=%d, want %d/%d/%d",
				hits, misses, inv, wantHits, wantMisses, wantInvalidations)
		}
	}

	first := rawQuery(t, ts.URL, req)
	assertCounters(0, 1, 0)
	if got := rawQuery(t, ts.URL, req); !bytes.Equal(got, first) {
		t.Fatalf("hit response differs from miss response")
	}
	assertCounters(1, 1, 0)

	inst, err := srv.instance("rstar")
	if err != nil {
		t.Fatal(err)
	}
	far := geom.R(1, 1, 2, 2)
	if mbr.Candidates(topo.Overlap).Has(mbr.ConfigOf(far, ref)) {
		t.Fatalf("%v overlaps the window %v", far, ref)
	}
	if err := inst.Insert(far, 900002); err != nil {
		t.Fatal(err)
	}
	if got := rawQuery(t, ts.URL, req); !bytes.Equal(got, first) {
		t.Fatalf("an insert outside the window changed the answer")
	}
	assertCounters(2, 1, 0)

	mid := ref.Center()
	if err := inst.Insert(geom.R(mid.X-1, mid.Y-1, mid.X+1, mid.Y+1), 900003); err != nil {
		t.Fatal(err)
	}
	if got := rawQuery(t, ts.URL, req); !bytes.Contains(got, []byte(`{"oid":900003,`)) {
		t.Fatalf("the answer after an insert inside the window lacks it: %s", got)
	}
	assertCounters(2, 2, 1)

	for _, metric := range []string{"topod_cache_hits_total", "topod_cache_misses_total", "topod_cache_evictions_total", "topod_plan_shortcircuit_total"} {
		scrapeCounterValue(t, ts.URL, metric)
	}
	if got := scrapeCounterValue(t, ts.URL, "topod_cache_invalidations_total"); got != 1 {
		t.Fatalf("topod_cache_invalidations_total = %d, want 1", got)
	}
}

// ruleKey is a one-term question on the index "i" for the rule tests.
func ruleKey(rel topo.Relation, ref geom.Rect, limit int) cacheKey {
	return cacheKey{index: "i", rels: topo.NewSet(rel), ref: ref, limit: limit}
}

// fillRule runs a miss on key to its put, with answer holding
// candidates matches, calling between (a commit, say) while the fill
// is pending.
func fillRule(t *testing.T, c *resultCache, key cacheKey, candidates int, between func()) {
	t.Helper()
	res, fill := c.lookup(key)
	if res != nil {
		t.Fatalf("%+v: a hit where a miss was due", key)
	}
	if between != nil {
		between()
	}
	c.put(fill, &cachedResult{lines: []byte("x\n"), stats: query.Stats{Candidates: candidates}})
}

func stored(c *resultCache, key cacheKey) bool {
	_, ok := c.entries[key]
	return ok
}

func commitOf(rects ...geom.Rect) []wal.Record {
	recs := make([]wal.Record, len(rects))
	for i, r := range rects {
		recs[i] = wal.Record{Op: wal.OpInsert, OID: uint64(i + 1), Rect: r}
	}
	return recs
}

var (
	ruleWindow = geom.R(100, 100, 200, 200)
	ruleInside = geom.R(120, 120, 130, 130) // inside ruleWindow
	ruleFar    = geom.R(900, 900, 905, 905)
)

// TestCachePendingFillRule: a commit that admits a pending fill marks
// it and put refuses it; a fill that only a commit it does not admit
// ran beside is stored.
func TestCachePendingFillRule(t *testing.T) {
	c := newResultCache(8)
	near, other := ruleKey(topo.Overlap, ruleWindow, 0), ruleKey(topo.Overlap, geom.R(500, 500, 600, 600), 0)
	_, nearFill := c.lookup(near)
	fillRule(t, c, other, 1, func() { c.invalidate("i", commitOf(ruleInside)) })
	c.put(nearFill, &cachedResult{lines: []byte("x\n"), stats: query.Stats{Candidates: 1}})
	if stored(c, near) {
		t.Error("a fill the commit admitted was stored")
	}
	if !stored(c, other) {
		t.Error("a fill the commit did not admit was refused")
	}
	if len(c.pending) != 0 {
		t.Errorf("%d fills still pending", len(c.pending))
	}
}

// TestCacheLimitRule: an answer its limit cut short goes on any write
// of its index; one below its limit follows Table 1. A limited fill
// pending across any write is refused: until it ends, its cut is not
// known.
func TestCacheLimitRule(t *testing.T) {
	c := newResultCache(8)
	cut, below := ruleKey(topo.Overlap, ruleWindow, 2), ruleKey(topo.Inside, ruleWindow, 50)
	fillRule(t, c, cut, 2, nil)
	fillRule(t, c, below, 3, nil)
	c.invalidate("other", commitOf(ruleInside))
	if !stored(c, cut) || !stored(c, below) {
		t.Fatal("a write of another index evicted an entry")
	}
	c.invalidate("i", commitOf(ruleFar))
	if stored(c, cut) {
		t.Error("a far write left the answer its limit cut short")
	}
	if !stored(c, below) {
		t.Error("a far write evicted an answer below its limit")
	}
	c.invalidate("i", commitOf(ruleInside))
	if stored(c, below) {
		t.Error("a write inside the window left the answer below its limit")
	}

	fillRule(t, c, below, 3, func() { c.invalidate("i", commitOf(ruleFar)) })
	if stored(c, below) {
		t.Error("a limited fill pending across a write was stored")
	}
}

// TestCacheConjunctionRule: a conjunction's answer survives a write
// only one term admits, which evicts that term's own single-term
// entry, and goes on a write both terms admit. A batch goes through its
// MBR against the Table 2 propagation.
func TestCacheConjunctionRule(t *testing.T) {
	c := newResultCache(8)
	ref2 := geom.R(150, 150, 250, 250)
	conj := cacheKey{index: "i", rels: topo.NewSet(topo.Overlap), ref: ruleWindow, conj: true, rels2: topo.NewSet(topo.Overlap), ref2: ref2}
	single := ruleKey(topo.Overlap, ruleWindow, 0)
	fillRule(t, c, conj, 1, nil)
	fillRule(t, c, single, 1, nil)
	c.invalidate("i", commitOf(ruleInside)) // overlaps ruleWindow only
	if !stored(c, conj) {
		t.Error("a write admitted by one term evicted the conjunction")
	}
	if stored(c, single) {
		t.Error("the write left the single-term answer it enters")
	}
	c.invalidate("i", commitOf(ruleFar, geom.R(910, 910, 920, 920)))
	if !stored(c, conj) {
		t.Error("a far batch evicted the conjunction")
	}
	c.invalidate("i", commitOf(ruleFar, geom.R(160, 160, 170, 170))) // the second record overlaps both
	if stored(c, conj) {
		t.Error("a batch holding a record both terms admit left the conjunction")
	}
}

// TestCacheWritesVisibleBesideFills: readers keep refilling the entries
// of four windows while a writer inserts and deletes inside and outside
// them. After each acknowledged write, the writer's own query of the
// touched window must show it. A reader whose traversal pinned the tree
// before the write and stored its answer after the write invalidated
// would serve the writer a stale hit; the pending-fill mark refuses
// that store. Run it with -race -count=10.
func TestCacheWritesVisibleBesideFills(t *testing.T) {
	srv := New(Config{CacheSize: 64})
	inst, err := srv.AddIndex(IndexSpec{Name: "main", Kind: index.KindRStar, PageSize: 512},
		workload.NewDataset(workload.Medium, 2000, 0, 7).Items)
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	ask := func(win geom.Rect) []byte {
		body, _ := json.Marshal(QueryRequest{Index: "main", Relations: []string{"not_disjoint"}, Ref: wireOf(win)})
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Errorf("query %v: HTTP %d", win, rec.Code)
		}
		return rec.Body.Bytes()
	}
	windows := []geom.Rect{geom.R(100, 100, 300, 300), geom.R(600, 150, 800, 350), geom.R(200, 600, 400, 800), geom.R(650, 650, 850, 850)}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := r; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				ask(windows[i%len(windows)])
			}
		}()
	}
	defer func() {
		close(stop)
		wg.Wait()
	}()

	for i := 0; i < 200; i++ {
		win := windows[i%len(windows)]
		if i%3 == 2 {
			win = geom.R(float64(450+i%40), 450, float64(460+i%40), 460) // between the windows
		}
		c := win.Center()
		r := geom.R(c.X-1, c.Y-1, c.X+1, c.Y+1)
		oid := uint64(800000 + i)
		line := []byte(fmt.Sprintf(`{"oid":%d,`, oid))
		if err := inst.Insert(r, oid); err != nil {
			t.Fatal(err)
		}
		if !bytes.Contains(ask(win), line) {
			t.Fatalf("write %d: oid %d inserted in %v is missing from its answer", i, oid, win)
		}
		if err := inst.Delete(r, oid); err != nil {
			t.Fatal(err)
		}
		if bytes.Contains(ask(win), line) {
			t.Fatalf("write %d: oid %d deleted from %v is still in its answer", i, oid, win)
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
