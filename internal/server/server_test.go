package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"mbrtopo/internal/geom"
	"mbrtopo/internal/index"
	"mbrtopo/internal/query"
	"mbrtopo/internal/topo"
	"mbrtopo/internal/workload"
)

// newTestServer builds a Server with one index of each requested kind
// over the same deterministic dataset, fronted by an httptest server.
func newTestServer(t *testing.T, cfg Config, nData int, kinds ...index.Kind) (*Server, *httptest.Server, *workload.Dataset) {
	t.Helper()
	d := workload.NewDataset(workload.Medium, nData, 20, 1995)
	srv := New(cfg)
	for _, kind := range kinds {
		if _, err := srv.AddIndex(IndexSpec{Name: kindName(kind), Kind: kind, PageSize: 512}, d.Items); err != nil {
			t.Fatal(err)
		}
	}
	ts := startServer(srv, srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts, d
}

// startServer serves h as topod does, through srv.Listener: the
// streams hold their connections, and srv counts the socket writes.
func startServer(srv *Server, h http.Handler) *httptest.Server {
	ts := httptest.NewUnstartedServer(h)
	ts.Listener = srv.Listener(ts.Config, ts.Listener)
	ts.Start()
	return ts
}

func kindName(k index.Kind) string {
	switch k {
	case index.KindRTree:
		return "rtree"
	case index.KindRPlus:
		return "rplus"
	case index.KindRStar:
		return "rstar"
	}
	return "unknown"
}

// postQuery issues one NDJSON query and decodes the stream.
func postQuery(t *testing.T, base string, req QueryRequest) (matches []query.Match, stats WireStats, errLine string) {
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
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q, want application/x-ndjson", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	sawStats := false
	for sc.Scan() {
		var line QueryLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		switch {
		case line.Error != "":
			errLine = line.Error
		case line.Stats != nil:
			stats = *line.Stats
			sawStats = true
		case line.OID != nil && line.Rect != nil:
			if sawStats {
				t.Fatal("match line after stats line")
			}
			matches = append(matches, query.Match{
				OID:  *line.OID,
				Rect: geom.R(line.Rect[0], line.Rect[1], line.Rect[2], line.Rect[3]),
			})
		default:
			t.Fatalf("unclassifiable NDJSON line %q", sc.Text())
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if !sawStats && errLine == "" {
		t.Fatal("stream ended without stats or error line")
	}
	return matches, stats, errLine
}

// TestQueryNDJSONGoldenPath checks, for all three access methods, that
// the streamed response carries exactly the matches and Stats that
// Processor.QuerySetMBR returns for the same request, and the same
// bytes however much of it is copied from the leaves' kept text.
func TestQueryNDJSONGoldenPath(t *testing.T) {
	kinds := index.AllKinds()
	srv, ts, d := newTestServer(t, Config{}, 1500, kinds...)
	for _, kind := range kinds {
		for _, relations := range [][]string{{"overlap"}, {"in"}, {"not_disjoint"}, {"meet", "equal"}} {
			for qi, ref := range d.Queries[:5] {
				req := QueryRequest{
					Index:     kindName(kind),
					Relations: relations,
					Ref:       []float64{ref.Min.X, ref.Min.Y, ref.Max.X, ref.Max.Y},
				}
				sameBodyEveryTime(t, ts.URL+"/v1/query", req, false)
				got, gotStats, errLine := postQuery(t, ts.URL, req)
				if errLine != "" {
					t.Fatalf("%s %v query %d: server error %s", kindName(kind), relations, qi, errLine)
				}
				inst, err := srv.instance(kindName(kind))
				if err != nil {
					t.Fatal(err)
				}
				rels, err := ParseRelationSet(relations)
				if err != nil {
					t.Fatal(err)
				}
				want, err := inst.ReadProc().QuerySetMBR(rels, ref)
				if err != nil {
					t.Fatal(err)
				}
				sort.Slice(got, func(i, j int) bool { return got[i].OID < got[j].OID })
				if len(got) != len(want.Matches) {
					t.Fatalf("%s %v query %d: %d matches over the wire, want %d",
						kindName(kind), relations, qi, len(got), len(want.Matches))
				}
				for i := range got {
					if got[i] != want.Matches[i] {
						t.Fatalf("%s %v query %d: match %d = %+v, want %+v",
							kindName(kind), relations, qi, i, got[i], want.Matches[i])
					}
				}
				if gotStats != StatsToWire(want.Stats) {
					t.Fatalf("%s %v query %d: stats %+v, want %+v",
						kindName(kind), relations, qi, gotStats, StatsToWire(want.Stats))
				}
			}
		}
	}
}

// TestQueryLimit checks that limit caps the stream and is reflected in
// the stats line's candidate count.
func TestQueryLimit(t *testing.T) {
	_, ts, d := newTestServer(t, Config{}, 1500, index.KindRTree)
	ref := d.Queries[0]
	matches, stats, errLine := postQuery(t, ts.URL, QueryRequest{
		Relations: []string{"disjoint"},
		Ref:       []float64{ref.Min.X, ref.Min.Y, ref.Max.X, ref.Max.Y},
		Limit:     7,
	})
	if errLine != "" {
		t.Fatal(errLine)
	}
	if len(matches) != 7 || stats.Candidates != 7 {
		t.Fatalf("limit 7 delivered %d matches, stats.Candidates %d", len(matches), stats.Candidates)
	}
}

// stallingWriter lets a response's first write through and holds every
// later one until the request's context ends: what a socket does once
// an answer larger than its buffers meets a client that stopped
// reading. The disconnect tests use it so that the traversal is still
// running when the client hangs up, however fast the server streams.
type stallingWriter struct {
	http.ResponseWriter
	done   <-chan struct{}
	writes int
}

func (w *stallingWriter) Write(p []byte) (int, error) {
	if w.writes++; w.writes > 1 {
		<-w.done
	}
	return w.ResponseWriter.Write(p)
}

func (w *stallingWriter) Flush() { w.ResponseWriter.(http.Flusher).Flush() }

// hangUpAfterFirstLine serves srv behind stallingWriters, posts body
// to path, reads one line of the answer and drops the connection, then
// waits for the server to count the disconnect.
func hangUpAfterFirstLine(t *testing.T, srv *Server, path string, body []byte) {
	t.Helper()
	ts := startServer(srv, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		srv.Handler().ServeHTTP(&stallingWriter{ResponseWriter: w, done: r.Context().Done()}, r)
	}))
	defer ts.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+path, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bufio.NewReader(resp.Body).ReadString('\n'); err != nil {
		t.Fatal(err)
	}
	cancel()
	resp.Body.Close()

	// The handler folds its partial stats and counts the disconnect.
	deadline := time.Now().Add(5 * time.Second)
	for srv.metrics.disconnects.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("server never recorded the disconnect")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestQueryClientDisconnect checks that dropping the connection mid-
// stream stops the tree traversal: the pages folded into the metrics
// stay below what a completed traversal reads.
func TestQueryClientDisconnect(t *testing.T) {
	srv, _, d := newTestServer(t, Config{}, 20000, index.KindRTree)
	inst, err := srv.instance("rtree")
	if err != nil {
		t.Fatal(err)
	}
	ref := d.Queries[0]
	// Ground truth: a full disjoint traversal touches nearly every
	// page and yields ~20000 matches, some sixty writes' worth.
	full, err := inst.ReadProc().QuerySetMBR(topo.NewSet(topo.Disjoint), ref)
	if err != nil {
		t.Fatal(err)
	}
	if full.Stats.NodeAccesses < 100 {
		t.Fatalf("dataset too small to observe cancellation (full traversal reads %d pages)", full.Stats.NodeAccesses)
	}

	body, err := json.Marshal(QueryRequest{
		Relations: []string{"disjoint"},
		Ref:       []float64{ref.Min.X, ref.Min.Y, ref.Max.X, ref.Max.Y},
	})
	if err != nil {
		t.Fatal(err)
	}
	hangUpAfterFirstLine(t, srv, "/v1/query", body)
	folded := srv.metrics.nodeAccesses.Load()
	if folded >= full.Stats.NodeAccesses {
		t.Fatalf("disconnect did not stop page reads: folded %d accesses, full traversal is %d",
			folded, full.Stats.NodeAccesses)
	}
	if folded == 0 {
		t.Fatal("expected at least one page read before the disconnect")
	}
}

// TestAdmissionControlSaturation checks the 429 path: with one
// admission slot held, concurrent requests are shed with Retry-After
// and counted in the rejected metric.
func TestAdmissionControlSaturation(t *testing.T) {
	m := newMetrics(nil)
	adm := newAdmission(1, m)
	release := make(chan struct{})
	entered := make(chan struct{})
	h := adm.wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		entered <- struct{}{}
		<-release
		w.WriteHeader(http.StatusOK)
	}))
	ts := httptest.NewServer(h)
	defer ts.Close()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, err := http.Get(ts.URL)
		if err == nil {
			resp.Body.Close()
		}
	}()
	<-entered // the slot is now held

	resp, err := http.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated server answered %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Fatalf("Retry-After = %q, want \"1\"", ra)
	}
	var body ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil || body.Error == "" {
		t.Fatalf("429 body = %+v, %v; want an error message", body, err)
	}
	close(release)
	wg.Wait()
	if m.rejected.Load() != 1 {
		t.Fatalf("rejected counter = %d, want 1", m.rejected.Load())
	}
	if m.inFlight.Load() != 0 {
		t.Fatalf("in-flight gauge = %d after drain, want 0", m.inFlight.Load())
	}
}

// TestMetricsTotalsMatchSummedStats drives 8 concurrent clients and
// checks that the /metrics node-access and candidate totals equal the
// sums of the per-request stats the clients received.
func TestMetricsTotalsMatchSummedStats(t *testing.T) {
	srv, ts, d := newTestServer(t, Config{}, 3000, index.KindRStar)
	const clients = 8
	const perClient = 10
	sums := make([]WireStats, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				ref := d.Queries[(c*perClient+i)%len(d.Queries)]
				_, stats, errLine := postQuery(t, ts.URL, QueryRequest{
					Relations: []string{"not_disjoint"},
					Ref:       []float64{ref.Min.X, ref.Min.Y, ref.Max.X, ref.Max.Y},
				})
				if errLine != "" {
					t.Errorf("client %d: %s", c, errLine)
					return
				}
				sums[c].NodeAccesses += stats.NodeAccesses
				sums[c].Candidates += stats.Candidates
			}
		}(c)
	}
	wg.Wait()
	var wantAccesses uint64
	var wantCandidates int
	for _, s := range sums {
		wantAccesses += s.NodeAccesses
		wantCandidates += s.Candidates
	}
	if got := srv.metrics.nodeAccesses.Load(); got != wantAccesses {
		t.Fatalf("folded node accesses %d, per-request sum %d", got, wantAccesses)
	}
	if got := srv.metrics.candidates.Load(); got != uint64(wantCandidates) {
		t.Fatalf("folded candidates %d, per-request sum %d", got, wantCandidates)
	}
	// And the text exposition agrees with the registry.
	if got := scrapeCounterValue(t, ts.URL, "topod_node_accesses_total"); got != wantAccesses {
		t.Fatalf("/metrics topod_node_accesses_total = %d, want %d", got, wantAccesses)
	}
	if got := scrapeCounterValue(t, ts.URL, "topod_candidates_total"); got != uint64(wantCandidates) {
		t.Fatalf("/metrics topod_candidates_total = %d, want %d", got, wantCandidates)
	}
}

func scrapeCounterValue(t *testing.T, base, name string) uint64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if strings.HasPrefix(sc.Text(), name+" ") {
			v, err := strconv.ParseUint(strings.TrimSpace(strings.TrimPrefix(sc.Text(), name+" ")), 10, 64)
			if err != nil {
				t.Fatal(err)
			}
			return v
		}
	}
	t.Fatalf("counter %s not in exposition", name)
	return 0
}

// TestKNNEndpoint checks the kNN answers against the index's own
// NearestCtx and the folding of its traversal stats.
func TestKNNEndpoint(t *testing.T) {
	srv, ts, _ := newTestServer(t, Config{}, 1500, index.KindRTree)
	inst, err := srv.instance("")
	if err != nil {
		t.Fatal(err)
	}
	p := geom.Point{X: 400, Y: 600}
	want, wantTS, err := inst.ReadIndex().NearestCtx(context.Background(), p, 5)
	if err != nil {
		t.Fatal(err)
	}
	before := srv.metrics.nodeAccesses.Load()
	resp, err := http.Get(fmt.Sprintf("%s/v1/knn?k=5&x=%g&y=%g", ts.URL, p.X, p.Y))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("knn returned HTTP %d", resp.StatusCode)
	}
	var got KNNResponse
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if len(got.Neighbours) != len(want) {
		t.Fatalf("%d neighbours, want %d", len(got.Neighbours), len(want))
	}
	for i, nb := range got.Neighbours {
		if nb.OID != want[i].OID || nb.Dist != want[i].Dist {
			t.Fatalf("neighbour %d = %+v, want %+v", i, nb, want[i])
		}
	}
	if got.NodeAccesses != wantTS.NodeAccesses {
		t.Fatalf("knn node accesses %d, want %d", got.NodeAccesses, wantTS.NodeAccesses)
	}
	if folded := srv.metrics.nodeAccesses.Load() - before; folded != wantTS.NodeAccesses {
		t.Fatalf("metrics folded %d accesses for knn, want %d", folded, wantTS.NodeAccesses)
	}

	// k bounds the body one request builds in memory: past maxKNN the
	// request is refused, naming the bound, before the tree is touched.
	before = srv.metrics.nodeAccesses.Load()
	over, err := http.Get(fmt.Sprintf("%s/v1/knn?k=%d&x=1&y=1", ts.URL, maxKNN+1))
	if err != nil {
		t.Fatal(err)
	}
	defer over.Body.Close()
	body, _ := io.ReadAll(over.Body)
	if over.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), strconv.Itoa(maxKNN)) {
		t.Fatalf("k = %d answered HTTP %d (%s), want 400 naming %d", maxKNN+1, over.StatusCode, body, maxKNN)
	}
	// ParseFloat takes NaN and the infinities for numbers; a nearest-
	// neighbour search from such a point has no answer, so each is a 400
	// naming the parameter, before the tree is touched.
	for _, bad := range []struct{ query, param string }{
		{"x=NaN&y=1", "x"}, {"x=1&y=Inf", "y"}, {"x=-Infinity&y=1", "x"}, {"x=1&y=north", "y"}, {"y=1", "x"},
	} {
		resp, err := http.Get(ts.URL + "/v1/knn?k=3&" + bad.query)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), bad.param+" must be a finite number") {
			t.Fatalf("knn?%s answered HTTP %d (%s), want 400 naming %s", bad.query, resp.StatusCode, body, bad.param)
		}
	}
	if folded := srv.metrics.nodeAccesses.Load() - before; folded != 0 {
		t.Fatalf("refused requests still read %d nodes", folded)
	}
}

// TestWriteJSONUnencodable: a body encoding/json refuses is a 500 with
// an error in it, never the intended status over an empty body.
func TestWriteJSONUnencodable(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, KNNResponse{Neighbours: []KNNNeighbour{{Dist: math.NaN()}}})
	var body ErrorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("body %q: %v", rec.Body.String(), err)
	}
	if rec.Code != http.StatusInternalServerError || !strings.Contains(body.Error, "NaN") {
		t.Fatalf("an unencodable body answered HTTP %d %q, want 500 naming the value", rec.Code, body.Error)
	}
}

// TestMarkUnhealthyPublishesReason hammers Healthy and FailReason beside
// concurrent MarkUnhealthy calls (run it under -race): whoever sees the
// instance unhealthy must find a reason, and the first reason stays.
func TestMarkUnhealthyPublishesReason(t *testing.T) {
	for round := 0; round < 200; round++ {
		inst := &Instance{Name: "main"}
		start := make(chan struct{})
		var wg sync.WaitGroup
		for r := 0; r < 4; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				first := ""
				for i := 0; i < 2000; i++ {
					if inst.Healthy() {
						continue
					}
					reason := inst.FailReason()
					if reason == "" || (first != "" && reason != first) {
						t.Errorf("round %d: unhealthy with reason %q after %q", round, reason, first)
						return
					}
					first = reason
				}
			}()
		}
		for _, reason := range []string{"wal append failed", "checkpoint failed"} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				inst.MarkUnhealthy(reason)
			}()
		}
		close(start)
		wg.Wait()
		if inst.Healthy() || inst.FailReason() == "" {
			t.Fatalf("round %d: healthy = %v, reason %q after two MarkUnhealthy calls", round, inst.Healthy(), inst.FailReason())
		}
	}
}

// TestKNNDeadline: /v1/knn runs under the server's default deadline
// like /v1/query and /v1/join. Past it the answer is a 503 carrying the
// deadline error — never the neighbours found so far — and the pages
// read before the cut are still folded into /metrics.
func TestKNNDeadline(t *testing.T) {
	srv, ts, _ := newTestServer(t, Config{DefaultTimeout: time.Nanosecond}, 1500, index.KindRTree)
	inst, err := srv.instance("")
	if err != nil {
		t.Fatal(err)
	}
	expired, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	_, wantTS, err := inst.ReadIndex().NearestCtx(expired, geom.Point{X: 400, Y: 600}, 5)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("NearestCtx under an expired deadline: %v", err)
	}
	before := srv.metrics.nodeAccesses.Load()
	resp, err := http.Get(ts.URL + "/v1/knn?k=5&x=400&y=600")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(body), context.DeadlineExceeded.Error()) {
		t.Fatalf("knn past its deadline: HTTP %d %s; want 503 with the deadline error", resp.StatusCode, body)
	}
	if strings.Contains(string(body), "neighbours") {
		t.Fatalf("knn past its deadline answered a neighbour list: %s", body)
	}
	if folded := srv.metrics.nodeAccesses.Load() - before; folded != wantTS.NodeAccesses {
		t.Fatalf("metrics folded %d accesses for the cut knn, want %d", folded, wantTS.NodeAccesses)
	}
	if got := scrapeCounterValue(t, ts.URL, "topod_node_accesses_total"); got != srv.metrics.nodeAccesses.Load() {
		t.Fatalf("/metrics topod_node_accesses_total = %d, folded sum %d", got, srv.metrics.nodeAccesses.Load())
	}
}

// TestBadRequests covers the pre-stream error paths.
func TestBadRequests(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{}, 100, index.KindRTree)
	cases := []struct {
		req  QueryRequest
		code int
	}{
		{QueryRequest{Relations: []string{"overlap"}, Ref: []float64{0, 0, 1, 1}, Index: "nope"}, http.StatusNotFound},
		{QueryRequest{Relations: []string{"sideways"}, Ref: []float64{0, 0, 1, 1}}, http.StatusBadRequest},
		{QueryRequest{Relations: nil, Ref: []float64{0, 0, 1, 1}}, http.StatusBadRequest},
		{QueryRequest{Relations: []string{"overlap"}, Ref: []float64{5, 5, 1, 1}}, http.StatusBadRequest},
		{QueryRequest{Relations: []string{"overlap"}, Ref: []float64{1, 2, 3}}, http.StatusBadRequest},
	}
	for i, c := range cases {
		body, _ := json.Marshal(c.req)
		resp, err := http.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != c.code {
			t.Errorf("case %d: HTTP %d, want %d", i, resp.StatusCode, c.code)
		}
	}
}

// TestIndexNameValidation: a name reaches file paths under the data
// directory, so AddIndex takes a closed alphabet
// only — nothing is created for a refused name.
func TestIndexNameValidation(t *testing.T) {
	dir := t.TempDir()
	srv := New(Config{})
	for _, name := range []string{"", "a/b", "..", "../x", "main.t0", "a%d", strings.Repeat("n", 65)} {
		if _, err := srv.AddIndex(IndexSpec{Name: name, Kind: index.KindRTree, Dir: dir}, nil); err == nil {
			t.Errorf("AddIndex accepted the name %q", name)
		}
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 0 {
		t.Fatalf("refused names left %v in the data directory (err %v)", entries, err)
	}
	for _, name := range []string{"main", "second", "crash", "A-1_b", strings.Repeat("n", 64)} {
		if _, err := srv.AddIndex(IndexSpec{Name: name, Kind: index.KindRTree, Dir: dir}, nil); err != nil {
			t.Errorf("AddIndex refused the name %q: %v", name, err)
		}
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	// The tile-layout refusal reads ordinals, never the name as a pattern.
	for file, refused := range map[string]bool{"main.t2.flat": true, "main.t11.wal.4": true, "main.tx.flat": false, "mainly.t5.flat": false} {
		d := t.TempDir()
		if err := os.WriteFile(filepath.Join(d, file), nil, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := legacySnapshot(d, "main"); (err != nil) != refused {
			t.Errorf("legacySnapshot with %s = %v, want refused=%v", file, err, refused)
		}
	}
}

// TestQueryTimeout checks the deadline a request's timeout_ms sets: its
// own up to maxTimeout and maxTimeout beyond, also where the
// milliseconds overflow a Duration's nanoseconds.
func TestQueryTimeout(t *testing.T) {
	s := New(Config{DefaultTimeout: 5 * time.Second})
	defer s.Close()
	for _, c := range []struct {
		ms   int64
		want time.Duration
	}{
		{0, 5 * time.Second},
		{1, time.Millisecond},
		{60000, maxTimeout},
		{9223372036855, maxTimeout},
		{math.MaxInt64, maxTimeout},
	} {
		if got := s.queryTimeout(c.ms); got != c.want {
			t.Errorf("queryTimeout(%d) = %v, want %v", c.ms, got, c.want)
		}
	}
}
