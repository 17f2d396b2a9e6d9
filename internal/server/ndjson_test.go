package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"mbrtopo/internal/geom"
	"mbrtopo/internal/index"
	"mbrtopo/internal/query"
	"mbrtopo/internal/topo"
)

// recorder is a ResponseWriter that remembers every Write and Flush,
// and can fail every write from the failFrom-th on (0 = never).
type recorder struct {
	header   http.Header
	writes   [][]byte
	flushes  int
	failFrom int
}

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

// steppedClock is a lineWriter clock the test advances by hand.
type steppedClock struct{ t time.Time }

func (c *steppedClock) since(start time.Time) time.Duration { return c.t.Sub(start) }

func testMatch(i int) query.Match { return query.Match{OID: uint64(i), Rect: testRect(i)} }

func testRect(i int) geom.Rect {
	x := float64(i%1000) + 0.25
	return geom.R(x, x+1, x+10.5, x+20)
}

// TestLineWriterFlushContract pins the three rules: nothing reaches
// the ResponseWriter before 32 KiB are pending, a line is a millisecond
// old, or the stream ends — and the end of the stream writes once
// without a Flush.
func TestLineWriterFlushContract(t *testing.T) {
	srv := New(Config{})
	start := func() (*lineWriter, *recorder, *steppedClock) {
		rec, clock := newRecorder(), &steppedClock{t: time.Unix(1995, 0)}
		lw := srv.newLineWriter(rec, false)
		lw.start, lw.since = clock.t, clock.since
		return lw, rec, clock
	}

	t.Run("small answer is one write at the end", func(t *testing.T) {
		lw, rec, _ := start()
		var want []byte
		for i := 0; i < 200; i++ {
			if !lw.match(testMatch(i)) {
				t.Fatal("match reported a failure")
			}
			want = appendMatchLine(want, testMatch(i))
		}
		if len(rec.writes) != 0 {
			t.Fatalf("%d writes before the end of a %d-byte stream, want 0", len(rec.writes), len(want))
		}
		before := srv.metrics.streamFlushes.Load()
		lw.end(QueryLine{Stats: &WireStats{NodeAccesses: 7, Candidates: 200}})
		want = append(want, `{"stats":{"node_accesses":7,"candidates":200}}`+"\n"...)
		if len(rec.writes) != 1 || rec.flushes != 0 {
			t.Fatalf("end of stream made %d writes and %d Flush calls, want 1 and 0", len(rec.writes), rec.flushes)
		}
		if !bytes.Equal(rec.body(), want) {
			t.Fatalf("body\n got %q\nwant %q", rec.body(), want)
		}
		if got := srv.metrics.streamFlushes.Load() - before; got != 1 {
			t.Fatalf("stream flush counter moved by %d, want 1", got)
		}
		if got := srv.Metrics().Disconnects(); got != 0 {
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
		lw.end(nil)
		if len(rec.writes) != 2 || rec.flushes != 1 {
			t.Fatalf("after end: %d writes and %d Flush calls, want 2 and 1", len(rec.writes), rec.flushes)
		}
	})

	t.Run("a line older than a millisecond goes out with the next", func(t *testing.T) {
		lw, rec, clock := start()
		lw.match(testMatch(1))
		clock.t = clock.t.Add(flushAge / 2)
		lw.match(testMatch(2))
		if len(rec.writes) != 0 {
			t.Fatalf("%d writes while the oldest line is %s old", len(rec.writes), flushAge/2)
		}
		clock.t = clock.t.Add(2 * time.Millisecond)
		lw.match(testMatch(3))
		if len(rec.writes) != 1 || rec.flushes != 1 {
			t.Fatalf("%d writes and %d Flush calls after a 2 ms gap, want 1 and 1", len(rec.writes), rec.flushes)
		}
		if got := bytes.Count(rec.writes[0], []byte("\n")); got != 3 {
			t.Fatalf("aged write carries %d lines, want all 3", got)
		}
		// The age is the oldest pending line's: the clock starts again.
		lw.match(testMatch(4))
		if len(rec.writes) != 1 {
			t.Fatal("a fresh line was written at once")
		}
		lw.end(nil)
	})
}

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
	if got := srv.Metrics().Disconnects(); got != 1 {
		t.Fatalf("disconnects = %d, want 1", got)
	}
	if folded := srv.Metrics().NodeAccessesTotal(); folded == 0 || folded >= full.Stats.NodeAccesses {
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
	if len(rec.writes) != 1 || jsrv.Metrics().Disconnects() != 1 {
		t.Fatalf("join: %d writes and %d disconnects after the first write failed, want 1 and 1", len(rec.writes), jsrv.Metrics().Disconnects())
	}
	if folded := jsrv.Metrics().JoinNodeAccessesTotal(); folded == 0 || folded >= fullJoin.Stats.NodeAccesses {
		t.Fatalf("join: write error did not stop page reads: folded %d, full run is %d", folded, fullJoin.Stats.NodeAccesses)
	}
}

// discard is a ResponseWriter that costs nothing, for allocation counts.
type discard struct{ header http.Header }

func (d discard) Header() http.Header       { return d.header }
func (discard) WriteHeader(int)             {}
func (discard) Write(p []byte) (int, error) { return len(p), nil }
func (discard) Flush()                      {}

// TestLineWriterZeroAllocs keeps the per-line path free of heap
// allocations: a fmt.Sprintf or json.Encoder creeping back in fails
// here, in tier 1.
func TestLineWriterZeroAllocs(t *testing.T) {
	srv := New(Config{})
	lw := srv.newLineWriter(discard{header: make(http.Header)}, false)
	defer lw.end(nil)
	p := query.JoinPair{LeftOID: 123456, RightOID: 654321, LeftRect: testRect(17), RightRect: testRect(401)}
	if n := testing.AllocsPerRun(10, func() {
		for i := 0; i < 1000; i++ {
			lw.match(testMatch(i))
		}
	}); n != 0 {
		t.Errorf("1000 match lines cost %v allocations, want 0", n)
	}
	if n := testing.AllocsPerRun(10, func() {
		for i := 0; i < 1000; i++ {
			lw.pair(p)
		}
	}); n != 0 {
		t.Errorf("1000 pair lines cost %v allocations, want 0", n)
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
