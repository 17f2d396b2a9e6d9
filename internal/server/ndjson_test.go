package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"

	"mbrtopo/internal/geom"
	"mbrtopo/internal/index"
	"mbrtopo/internal/mbr"
	"mbrtopo/internal/query"
	"mbrtopo/internal/rtree"
	"mbrtopo/internal/topo"
	"mbrtopo/internal/workload"
)

// recorder is a ResponseWriter that remembers every Write and Flush,
// and can fail every write from the failFrom-th on (0 = never).
type recorder struct {
	header   http.Header
	writes   [][]byte
	flushes  int
	failFrom int
}

// inProcess is a request that arrived on no connection, as a handler
// called in process sees it: its lineWriter holds nothing.
var inProcess = httptest.NewRequest(http.MethodPost, "/v1/query", nil)

func newRecorder() *recorder { return &recorder{header: make(http.Header)} }

func (r *recorder) Header() http.Header { return r.header }
func (r *recorder) WriteHeader(int)     {}
func (r *recorder) Flush()              { r.flushes++ }

func (r *recorder) Write(p []byte) (int, error) {
	r.writes = append(r.writes, append([]byte(nil), p...))
	if r.failFrom > 0 && len(r.writes) >= r.failFrom {
		return 0, errors.New("recorder: connection gone")
	}
	return len(p), nil
}

func (r *recorder) body() []byte { return bytes.Join(r.writes, nil) }

// steppedClock is a lineWriter clock the test advances by hand; it
// counts its readings.
type steppedClock struct {
	t     time.Time
	reads int
}

func (c *steppedClock) since(start time.Time) time.Duration {
	c.reads++
	return c.t.Sub(start)
}

func testRect(i int) geom.Rect {
	x := float64(i%1000) + 0.25
	return geom.R(x, x+1, x+10.5, x+20)
}

// leafSearcher is the per-leaf traversal of the trees the tests build.
type leafSearcher interface {
	SearchPreds(ctx context.Context, node, leaf mbr.Pred, emit func(rtree.Leaf) bool) (rtree.TraversalStats, error)
}

// testLeaf returns the whole batch of a one-leaf R-tree holding
// testRect(i) under oid i for each i in [from, from+n), as a query
// hands it to the line writer. A fresh leaf has not earned its text:
// its first batch is rendered entry by entry.
func testLeaf(t testing.TB, from, n int) rtree.Leaf {
	t.Helper()
	ps := 128
	for rtree.CapacityForPageSize(ps) < max(n, 4) {
		ps += 40
	}
	idx, err := index.NewWithPageSize(index.KindRTree, ps)
	if err != nil {
		t.Fatal(err)
	}
	for i := from; i < from+n; i++ {
		if err := idx.Insert(testRect(i), uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	return wholeLeaf(t, idx)
}

// wholeLeaf returns the batch of idx's first leaf under no test; the
// traversal that found it is over, so the batch is the caller's.
func wholeLeaf(t testing.TB, idx index.Index) rtree.Leaf {
	t.Helper()
	var l rtree.Leaf
	all := mbr.Func(nil)
	if _, err := idx.(leafSearcher).SearchPreds(context.Background(), all, all, func(b rtree.Leaf) bool {
		l = b
		return false
	}); err != nil {
		t.Fatal(err)
	}
	return l
}

// leafLines renders l's lines as the slow path does, entry by entry.
func leafLines(b []byte, l rtree.Leaf) []byte {
	for i := range l.Len() {
		h := l.Hit(i)
		b = appendMatchLine(b, h.OID, h.Rect)
	}
	return b
}

// TestLineWriterFlushContract pins the three rules: nothing reaches
// the ResponseWriter before 32 KiB are pending, a line is a millisecond
// old, or the stream ends — and the end of the stream writes once, with
// a Flush only when that write is over smallEnd.
func TestLineWriterFlushContract(t *testing.T) {
	srv := New(Config{})
	start := func() (*lineWriter, *recorder, *steppedClock) {
		rec, clock := newRecorder(), &steppedClock{t: time.Unix(1995, 0)}
		lw := srv.newLineWriter(rec, inProcess, false)
		lw.start, lw.since = clock.t, clock.since
		return lw, rec, clock
	}

	t.Run("small answer is one write at the end", func(t *testing.T) {
		lw, rec, _ := start()
		l := testLeaf(t, 0, 200)
		want := leafLines(nil, l)
		if !lw.leaf(l) {
			t.Fatal("leaf reported a failure")
		}
		if len(rec.writes) != 0 {
			t.Fatalf("%d writes before the end of a %d-byte stream, want 0", len(rec.writes), len(want))
		}
		before := srv.metrics.streamFlushes.Load()
		lw.endQuery(&QueryLine{Stats: &WireStats{NodeAccesses: 7, Candidates: 200}})
		want = append(want, `{"stats":{"node_accesses":7,"candidates":200}}`+"\n"...)
		if len(rec.writes) != 1 || rec.flushes != 1 {
			t.Fatalf("end of stream made %d writes and %d Flush calls, want 1 and 1", len(rec.writes), rec.flushes)
		}
		if !bytes.Equal(rec.body(), want) {
			t.Fatalf("body\n got %q\nwant %q", rec.body(), want)
		}
		if got := srv.metrics.streamFlushes.Load() - before; got != 1 {
			t.Fatalf("stream flush counter moved by %d, want 1", got)
		}
		if got := srv.metrics.disconnects.Load(); got != 0 {
			t.Fatalf("a completed stream counted %d disconnects", got)
		}
		if ct := rec.header.Get("Content-Type"); ct != "application/x-ndjson" {
			t.Fatalf("Content-Type = %q", ct)
		}
	})

	t.Run("32 KiB pending is one mid-stream write", func(t *testing.T) {
		lw, rec, _ := start()
		for i, size := 0, 0; size < 40<<10; i++ {
			p := query.JoinPair{LeftOID: uint64(i), RightOID: uint64(i + 1), LeftRect: testRect(i), RightRect: testRect(i + 1)}
			lw.pair(p)
			size += len(appendPairLine(nil, p))
		}
		if len(rec.writes) != 1 || rec.flushes != 1 {
			t.Fatalf("%d writes and %d Flush calls mid-stream, want 1 and 1", len(rec.writes), rec.flushes)
		}
		if n := len(rec.writes[0]); n < flushBytes || n > flushBytes+512 {
			t.Fatalf("mid-stream write of %d bytes, want just over %d", n, flushBytes)
		}
		// The ~8 KiB left over are over smallEnd, so the end flushes them.
		lw.end(false)
		if len(rec.writes) != 2 || rec.flushes != 2 {
			t.Fatalf("after end: %d writes and %d Flush calls, want 2 and 2", len(rec.writes), rec.flushes)
		}
	})

	t.Run("an end under smallEnd is written without a Flush", func(t *testing.T) {
		lw, rec, clock := start()
		lw.leaf(testLeaf(t, 1, 1))
		clock.t = clock.t.Add(flushAge)
		lw.leaf(testLeaf(t, 2, 1))
		lw.leaf(testLeaf(t, 3, 1))
		lw.endQuery(&QueryLine{Stats: &WireStats{}})
		if len(rec.writes) != 2 || rec.flushes != 1 || rec.header.Get("Content-Length") != "" {
			t.Fatalf("%d writes, %d Flush calls, Content-Length %q, want 2, 1 and none", len(rec.writes), rec.flushes, rec.header.Get("Content-Length"))
		}
		lw, rec, _ = start()
		lw.leaf(testLeaf(t, 1, 1))
		lw.endQuery(&QueryLine{Stats: &WireStats{}})
		if len(rec.writes) != 1 || rec.flushes != 0 || rec.header.Get("Content-Length") == "" {
			t.Fatalf("a one-line answer made %d writes and %d Flush calls, Content-Length %q, want one sized write and no Flush", len(rec.writes), rec.flushes, rec.header.Get("Content-Length"))
		}
	})

	t.Run("a line older than a millisecond goes out with the next", func(t *testing.T) {
		lw, rec, clock := start()
		lw.leaf(testLeaf(t, 1, 1))
		clock.t = clock.t.Add(flushAge / 2)
		lw.leaf(testLeaf(t, 2, 1))
		if len(rec.writes) != 0 {
			t.Fatalf("%d writes while the oldest line is %s old", len(rec.writes), flushAge/2)
		}
		clock.t = clock.t.Add(2 * time.Millisecond)
		lw.leaf(testLeaf(t, 3, 1))
		if len(rec.writes) != 1 || rec.flushes != 1 {
			t.Fatalf("%d writes and %d Flush calls after a 2 ms gap, want 1 and 1", len(rec.writes), rec.flushes)
		}
		if got := bytes.Count(rec.writes[0], []byte("\n")); got != 3 {
			t.Fatalf("aged write carries %d lines, want all 3", got)
		}
		// The age is the oldest pending line's: the clock starts again.
		lw.leaf(testLeaf(t, 4, 1))
		if len(rec.writes) != 1 {
			t.Fatal("a fresh line was written at once")
		}
		lw.end(false)
	})

	t.Run("a match line reads the clock only as its leaf's first", func(t *testing.T) {
		lw, _, clock := start()
		for i := 0; i < 10; i++ { // 10 leaves of 20 matches
			lw.leaf(testLeaf(t, 20*i, 20))
		}
		if clock.reads > 11 {
			t.Fatalf("200 match lines from 10 leaves read the clock %d times, want at most 11", clock.reads)
		}
		lw.end(false)
	})

	t.Run("a leaf's first line a millisecond after the oldest pending one flushes", func(t *testing.T) {
		lw, rec, clock := start()
		lw.leaf(testLeaf(t, 1, 2))
		clock.t = clock.t.Add(flushAge)
		if len(rec.writes) != 0 {
			t.Fatalf("%d writes before the next leaf's first line", len(rec.writes))
		}
		lw.leaf(testLeaf(t, 3, 2))
		if len(rec.writes) != 1 || rec.flushes != 1 || bytes.Count(rec.writes[0], []byte("\n")) != 4 {
			t.Fatalf("%d writes and %d Flush calls at the next leaf's first line, want 1 and 1 with all 4 lines", len(rec.writes), rec.flushes)
		}
		lw.end(false)
	})

	t.Run("a pair line reads the clock", func(t *testing.T) {
		lw, rec, clock := start()
		p := query.JoinPair{LeftOID: 1, RightOID: 2, LeftRect: testRect(1), RightRect: testRect(2)}
		lw.pair(p)
		clock.t = clock.t.Add(flushAge)
		lw.pair(p)
		if clock.reads != 2 || len(rec.writes) != 1 || rec.flushes != 1 {
			t.Fatalf("two pair lines a millisecond apart: %d readings, %d writes, %d Flush calls, want 2, 1 and 1", clock.reads, len(rec.writes), rec.flushes)
		}
		lw.end(false)
	})
}

// TestResponseFraming checks how each finite stream is framed on a
// real HTTP/1.1 connection, and how many socket writes it costs
// (topod_socket_writes_total). A complete answer that never left the
// pending buffer declares its length, is not chunked and leaves in one
// socket write: a miss that made one write (one that waited out
// flushAge, under the race detector say, wrote early), its cache hit
// and an explain hit, which read no clock. An answer over flushBytes,
// which wrote before it ended, stays chunked and costs one socket
// write per flush plus one or two for its end; a stream cut short
// never declares a length.
func TestResponseFraming(t *testing.T) {
	srv, ts, _ := newTestServer(t, Config{CacheSize: 8}, 2000, index.KindRStar)
	window := QueryRequest{Index: "rstar", Relations: []string{"not_disjoint"}, Ref: []float64{100, 100, 300, 300}}
	ask := func(req QueryRequest) (body []byte, sized bool, writes, sends uint64) {
		before, sent := srv.metrics.streamFlushes.Load(), srv.metrics.socketWrites.Load()
		body, sized = fetchFramed(t, ts.URL+"/v1/query", req)
		return body, sized, srv.metrics.streamFlushes.Load() - before, srv.metrics.socketWrites.Load() - sent
	}

	miss, sized, writes, sends := ask(window)
	if len(miss) <= 2048 || len(miss) >= flushBytes {
		t.Fatalf("window answer is %d bytes, want one over net/http's own 2 KiB sizing and under %d", len(miss), flushBytes)
	}
	if sized != (writes == 1) {
		t.Fatalf("the miss made %d writes and sized is %v, want a sized body exactly when it made one", writes, sized)
	}
	if sized && sends != 1 {
		t.Fatalf("the sized miss made %d socket writes, want 1", sends)
	}
	if hit, sized, writes, sends := ask(window); !sized || writes != 1 || sends != 1 {
		t.Fatalf("the cache hit made %d writes and %d socket writes and sized is %v, want one sized write", writes, sends, sized)
	} else if !bytes.Equal(hit, miss) {
		t.Fatal("the cache hit's body differs from the miss's")
	}
	explain := window
	explain.Explain = true
	body, sized, writes, sends := ask(explain)
	if !sized || writes != 1 || sends != 1 {
		t.Fatalf("the explain hit made %d writes and %d socket writes and sized is %v, want one sized write", writes, sends, sized)
	}
	lines := body[:bytes.LastIndexByte(body[:len(body)-1], '\n')+1]
	if missLines := miss[:bytes.LastIndexByte(miss[:len(miss)-1], '\n')+1]; !bytes.Equal(lines, missLines) {
		t.Fatal("the explain hit's match lines differ from the miss's")
	}
	if !bytes.Contains(body[len(lines):], []byte(`"explain":"cache=hit `)) {
		t.Fatalf("explain trailer %q does not report the hit", body[len(lines):])
	}
	if hits, _, _ := srv.cache.counters(); hits != 2 {
		t.Fatalf("%d cache hits, want 2", hits)
	}

	// A stream cut by its deadline: the first write of the 2000-line
	// disjoint answer outlasts the request's 5 ms. Whether the cut came
	// before that write or after it, fetchFramed fails a declared length
	// the body did not fill.
	slow := startServer(srv, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		srv.Handler().ServeHTTP(&slowWriter{ResponseWriter: w, hold: 50 * time.Millisecond}, r)
	}))
	defer slow.Close()
	cut := QueryRequest{Index: "rstar", Relations: []string{"disjoint"}, Ref: window.Ref, TimeoutMS: 5}
	if body, _ = fetchFramed(t, slow.URL+"/v1/query", cut); bytes.Contains(body, []byte(`"stats"`)) {
		t.Fatal("the deadline did not cut the stream")
	}

	// The same 2000-line answer in full: each flush under rule (a) or
	// (b) is one socket write, and its end one more, or two when its
	// last chunk is over smallEnd and goes out before the terminator.
	cut.TimeoutMS = 0
	body, sized, writes, sends = ask(cut)
	if sized || len(body) <= flushBytes || writes < 2 {
		t.Fatalf("the disjoint answer of %d bytes made %d writes and sized is %v, want chunked over %d", len(body), writes, sized, flushBytes)
	}
	if sends != writes && sends != writes+1 {
		t.Fatalf("the disjoint answer made %d writes and %d socket writes, want %d or %d", writes, sends, writes, writes+1)
	}

	jsrv, jts := newJoinTestServer(t, Config{}, 3000, 3000)
	full, err := query.JoinTopological(joinIdx(t, jsrv, "left"), joinIdx(t, jsrv, "right"), topo.NotDisjoint, query.JoinOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, p := range full.Pairs {
		want = append(want, string(appendPairLine(nil, p)))
	}
	sort.Strings(want)
	body, sized = fetchFramed(t, jts.URL+"/v1/join", JoinRequest{Left: "left", Right: "right", Relations: []string{"not_disjoint"}})
	if sized || len(body) <= flushBytes {
		t.Fatalf("join answer of %d bytes is sized: %v, want chunked over %d", len(body), sized, flushBytes)
	}
	got := strings.SplitAfter(string(body), "\n")
	trailer := got[len(got)-2]
	got = got[:len(got)-2] // the trailer and the empty string after it
	sort.Strings(got)
	if strings.Join(got, "") != strings.Join(want, "") {
		t.Fatal("the join's pair lines differ from the in-process join's")
	}
	if w := string(appendJoinTrailer(nil, &JoinLine{Stats: &JoinWireStats{Pairs: len(full.Pairs), NodeAccesses: full.Stats.NodeAccesses}})); trailer != w {
		t.Fatalf("join trailer %q, want %q", trailer, w)
	}

	// What the wire cannot show: net/http ignores a header set after the
	// first write, so a length declared after a flush is visible only to
	// the ResponseWriter itself.
	rec := newRecorder()
	lw := srv.newLineWriter(rec, inProcess, false)
	for i := 0; len(rec.writes) == 0; i++ {
		lw.leaf(testLeaf(t, 100*i, 100))
	}
	lw.endQuery(&QueryLine{Stats: &WireStats{}})
	if cl := rec.header.Get("Content-Length"); cl != "" {
		t.Fatalf("a stream that wrote before its end declared Content-Length %s", cl)
	}
	rec = newRecorder()
	lw = srv.newLineWriter(rec, inProcess, false)
	lw.leaf(testLeaf(t, 1, 1))
	lw.endQuery(nil)
	if cl := rec.header.Get("Content-Length"); cl != "" {
		t.Fatalf("a stream cut short declared Content-Length %s", cl)
	}
}

// fetchFramed posts req to url and returns the body and whether it came
// sized (a Content-Length, no Transfer-Encoding) rather than chunked. It
// fails on any other framing, so a declared length is always the
// body's.
func fetchFramed(t *testing.T, url string, req any) ([]byte, bool) {
	t.Helper()
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("%s: reading the body: %v", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: HTTP %d: %s", url, resp.StatusCode, body)
	}
	sized := resp.ContentLength == int64(len(body)) && len(resp.TransferEncoding) == 0
	chunked := resp.ContentLength == -1 && len(resp.TransferEncoding) == 1 && resp.TransferEncoding[0] == "chunked"
	if !sized && !chunked {
		t.Fatalf("%s: %d-byte body has Content-Length %d and Transfer-Encoding %v",
			url, len(body), resp.ContentLength, resp.TransferEncoding)
	}
	return body, sized
}

// slowWriter holds a response's first write for hold: a client that
// reads slowly, so the request's deadline passes mid-stream.
type slowWriter struct {
	http.ResponseWriter
	hold  time.Duration
	wrote bool
}

func (w *slowWriter) Write(p []byte) (int, error) {
	if !w.wrote {
		w.wrote = true
		time.Sleep(w.hold)
	}
	return w.ResponseWriter.Write(p)
}

func (w *slowWriter) Flush() { w.ResponseWriter.(http.Flusher).Flush() }

// TestWriteErrorStopsProducer drives the handlers against a connection
// whose first write fails: the traversal must stop there (yield
// reported false), the failure must count as one disconnect, and no
// trailer may follow.
func TestWriteErrorStopsProducer(t *testing.T) {
	srv, _, d := newTestServer(t, Config{}, 20000, index.KindRTree)
	inst, err := srv.instance("rtree")
	if err != nil {
		t.Fatal(err)
	}
	ref := d.Queries[0]
	full, err := inst.ReadProc().QuerySetMBR(topo.NewSet(topo.Disjoint), ref)
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(QueryRequest{Relations: []string{"disjoint"}, Ref: []float64{ref.Min.X, ref.Min.Y, ref.Max.X, ref.Max.Y}})
	if err != nil {
		t.Fatal(err)
	}
	rec := newRecorder()
	rec.failFrom = 1
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(body)))
	if len(rec.writes) != 1 {
		t.Fatalf("%d writes after the first one failed, want no more", len(rec.writes))
	}
	if got := srv.metrics.disconnects.Load(); got != 1 {
		t.Fatalf("disconnects = %d, want 1", got)
	}
	if folded := srv.metrics.nodeAccesses.Load(); folded == 0 || folded >= full.Stats.NodeAccesses {
		t.Fatalf("write error did not stop page reads: folded %d, full traversal is %d", folded, full.Stats.NodeAccesses)
	}

	jsrv, _ := newJoinTestServer(t, Config{}, 3000, 3000)
	fullJoin, err := query.JoinTopological(joinIdx(t, jsrv, "left"), joinIdx(t, jsrv, "right"), topo.NotDisjoint, query.JoinOptions{})
	if err != nil {
		t.Fatal(err)
	}
	body, err = json.Marshal(JoinRequest{Left: "left", Right: "right", Relations: []string{"not_disjoint"}})
	if err != nil {
		t.Fatal(err)
	}
	rec = newRecorder()
	rec.failFrom = 1
	jsrv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/join", bytes.NewReader(body)))
	if len(rec.writes) != 1 || jsrv.metrics.disconnects.Load() != 1 {
		t.Fatalf("join: %d writes and %d disconnects after the first write failed, want 1 and 1", len(rec.writes), jsrv.metrics.disconnects.Load())
	}
	if folded := jsrv.metrics.joinNodeAccesses.Load(); folded == 0 || folded >= fullJoin.Stats.NodeAccesses {
		t.Fatalf("join: write error did not stop page reads: folded %d, full run is %d", folded, fullJoin.Stats.NodeAccesses)
	}
}

// discard is a ResponseWriter that costs nothing, for allocation counts.
type discard struct{ header http.Header }

func (d discard) Header() http.Header       { return d.header }
func (discard) WriteHeader(int)             {}
func (discard) Write(p []byte) (int, error) { return len(p), nil }
func (discard) Flush()                      {}

// TestLineWriterZeroAllocs keeps the per-line paths free of heap
// allocations — a leaf's lines rendered entry by entry and copied from
// its earned text, and pair lines: a fmt.Sprintf or json.Encoder
// creeping back in fails here, in tier 1.
func TestLineWriterZeroAllocs(t *testing.T) {
	srv := New(Config{})
	lw := srv.newLineWriter(discard{header: make(http.Header)}, inProcess, false)
	defer lw.end(false)
	p := query.JoinPair{LeftOID: 123456, RightOID: 654321, LeftRect: testRect(17), RightRect: testRect(401)}
	// A leaf handed over once has not earned its text: one fresh leaf
	// for each run, and the warm-up's.
	var fresh []rtree.Leaf
	for k := 0; k < 11; k++ {
		fresh = append(fresh, testLeaf(t, 1000*k, 1000))
	}
	if n := testing.AllocsPerRun(10, func() {
		if l := fresh[len(fresh)-1]; lw.leaf(l) {
			fresh = fresh[:len(fresh)-1]
		}
	}); n != 0 {
		t.Errorf("1000 match lines rendered entry by entry cost %v allocations, want 0", n)
	}
	earned := testLeaf(t, 0, 1000)
	for k := 0; k < 2; k++ {
		lw.leaf(earned)
	}
	if _, ok := earned.Lines(); !ok {
		t.Fatal("a leaf asked for its text twice over has not earned it")
	}
	if n := testing.AllocsPerRun(10, func() { lw.leaf(earned) }); n != 0 {
		t.Errorf("1000 match lines copied from the leaf's text cost %v allocations, want 0", n)
	}
	if n := testing.AllocsPerRun(10, func() {
		for i := 0; i < 1000; i++ {
			lw.pair(p)
		}
	}); n != 0 {
		t.Errorf("1000 pair lines cost %v allocations, want 0", n)
	}
}

// TestQueryHandlerAllocs bounds the heap allocations of one /v1/query
// served through Handler().ServeHTTP, for a cache hit and for a miss,
// at topod's default deadline, in process and on a held connection
// (whose hold and send must cost nothing). The bounds are the counts
// the handler reaches; a json.Decoder reading the body, json.Marshal
// rendering the trailer or a deadline timer built for a hit fails
// here, in tier 1.
func TestQueryHandlerAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops items at random")
	}
	d := workload.NewDataset(workload.Medium, 2000, 20, 1995)
	body := []byte(`{"relations":["overlap"],"ref":[300,300,340,330]}`)
	for _, c := range []struct {
		name      string
		cacheSize int
		max       float64
	}{
		{"hit", 16, 9},
		{"miss", 0, 18},
	} {
		srv := New(Config{CacheSize: c.cacheSize, DefaultTimeout: 30 * time.Second})
		if _, err := srv.AddIndex(IndexSpec{Name: "main", Kind: index.KindRStar}, d.Items); err != nil {
			t.Fatal(err)
		}
		h := srv.Handler()
		hc, _ := heldPair(t, srv)
		rd := bytes.NewReader(body)
		inProc := httptest.NewRequest(http.MethodPost, "/v1/query", rd)
		held := inProc.WithContext(context.WithValue(inProc.Context(), heldConnKey{}, hc))
		w := discard{header: make(http.Header)}
		for _, req := range []*http.Request{inProc, held} {
			serve := func() {
				rd.Reset(body)
				h.ServeHTTP(w, req)
			}
			// Fill the cache, and let the leaves the answer reads earn
			// their text, before counting.
			for i := 0; i < 4; i++ {
				serve()
			}
			if n := testing.AllocsPerRun(100, serve); n > c.max {
				t.Errorf("a %s (held connection: %v) costs %v allocations, want at most %v", c.name, connOf(req) != nil, n, c.max)
			}
		}
	}
}

// TestCacheOversizeAnswer checks the byte bound on a cache entry: an
// answer over maxCachedBytes streams in full, is counted, and is not
// stored — the same request misses again with identical bytes — while
// a small answer on the same server still hits.
func TestCacheOversizeAnswer(t *testing.T) {
	srv, ts, d := newTestServer(t, Config{CacheSize: 8}, 20000, index.KindRStar)
	ref := d.Queries[0]
	big := QueryRequest{Index: "rstar", Relations: []string{"disjoint"}, Ref: []float64{ref.Min.X, ref.Min.Y, ref.Max.X, ref.Max.Y}}
	first := rawQuery(t, ts.URL, big)
	if len(first) <= maxCachedBytes {
		t.Fatalf("disjoint answer is %d bytes, need more than %d to test the bound", len(first), maxCachedBytes)
	}
	second := rawQuery(t, ts.URL, big)
	if !bytes.Equal(first, second) {
		t.Fatal("oversize answer changed between two identical requests")
	}
	if hits, misses, _ := srv.cache.counters(); hits != 0 || misses != 2 {
		t.Fatalf("oversize answer: %d hits, %d misses, want 0 and 2", hits, misses)
	}
	if got := scrapeCounterValue(t, ts.URL, "topod_cache_oversize_total"); got != 2 {
		t.Fatalf("topod_cache_oversize_total = %d, want 2", got)
	}

	small := QueryRequest{Index: "rstar", Relations: []string{"not_disjoint"}, Ref: big.Ref}
	miss := rawQuery(t, ts.URL, small)
	if hit := rawQuery(t, ts.URL, small); !bytes.Equal(miss, hit) {
		t.Fatal("cached answer differs from the miss that filled it")
	}
	if hits, _, _ := srv.cache.counters(); hits != 1 {
		t.Fatalf("small answer: %d hits, want 1", hits)
	}
	if got := scrapeCounterValue(t, ts.URL, "topod_cache_oversize_total"); got != 2 {
		t.Fatalf("topod_cache_oversize_total = %d after a small answer, want 2", got)
	}
}
