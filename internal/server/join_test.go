package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"mbrtopo/internal/geom"
	"mbrtopo/internal/index"
	"mbrtopo/internal/query"
	"mbrtopo/internal/topo"
	"mbrtopo/internal/workload"
)

// newJoinTestServer builds a server with two distinct datasets: "left"
// (an R-tree) and "right" (an R*-tree), so joins exercise both access
// methods and non-trivial pair sets.
func newJoinTestServer(t *testing.T, cfg Config, nLeft, nRight int) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(cfg)
	left := workload.NewDataset(workload.Medium, nLeft, 0, 1301)
	right := workload.NewDataset(workload.Medium, nRight, 0, 1302)
	if _, err := srv.AddIndex(IndexSpec{Name: "left", Kind: index.KindRTree, PageSize: 512}, left.Items); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.AddIndex(IndexSpec{Name: "right", Kind: index.KindRStar, PageSize: 512}, right.Items); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// postJoin issues one join request. On 200 it decodes the NDJSON
// stream; otherwise pairs/stats are empty and errLine carries the
// ErrorResponse message.
func postJoin(t *testing.T, base string, req JoinRequest) (status int, pairs []query.JoinPair, stats *JoinWireStats, errLine string) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/join", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	status = resp.StatusCode
	if status != http.StatusOK {
		var er ErrorResponse
		_ = json.NewDecoder(resp.Body).Decode(&er)
		return status, nil, nil, er.Error
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q, want application/x-ndjson", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	for sc.Scan() {
		var line JoinLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		switch {
		case line.Error != "":
			errLine = line.Error
		case line.Stats != nil:
			if stats != nil {
				t.Fatal("two stats lines in one stream")
			}
			s := *line.Stats
			stats = &s
		case line.LeftOID != nil && line.RightOID != nil && line.LeftRect != nil && line.RightRect != nil:
			if stats != nil {
				t.Fatal("pair line after stats line")
			}
			pairs = append(pairs, query.JoinPair{
				LeftOID:   *line.LeftOID,
				RightOID:  *line.RightOID,
				LeftRect:  geom.R(line.LeftRect[0], line.LeftRect[1], line.LeftRect[2], line.LeftRect[3]),
				RightRect: geom.R(line.RightRect[0], line.RightRect[1], line.RightRect[2], line.RightRect[3]),
			})
		default:
			t.Fatalf("unclassifiable NDJSON line %q", sc.Text())
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return status, pairs, stats, errLine
}

func joinIdx(t *testing.T, srv *Server, name string) index.Index {
	t.Helper()
	inst, err := srv.instance(name)
	if err != nil {
		t.Fatal(err)
	}
	return inst.ReadIndex()
}

// wireJoinPairSet collects streamed pairs as a set, failing on
// duplicates (the engine must emit every pair exactly once).
func wireJoinPairSet(t *testing.T, pairs []query.JoinPair) map[[2]uint64]bool {
	t.Helper()
	set := make(map[[2]uint64]bool, len(pairs))
	for _, p := range pairs {
		k := [2]uint64{p.LeftOID, p.RightOID}
		if set[k] {
			t.Fatalf("duplicate pair %v on the wire", k)
		}
		set[k] = true
	}
	return set
}

// TestJoinNDJSONGoldenPath checks that the streamed join carries
// exactly the pair set and statistics query.JoinTopological computes
// for the same request, across relation sets and the non-contiguous
// interpretation.
func TestJoinNDJSONGoldenPath(t *testing.T) {
	srv, ts := newJoinTestServer(t, Config{}, 1200, 1000)
	li, ri := joinIdx(t, srv, "left"), joinIdx(t, srv, "right")
	cases := []struct {
		relations []string
		nonContig bool
	}{
		{[]string{"overlap"}, false},
		{[]string{"meet", "equal"}, false},
		{[]string{"not_disjoint"}, false},
		{[]string{"meet"}, true},
	}
	for _, c := range cases {
		req := JoinRequest{Left: "left", Right: "right", Relations: c.relations, NonContiguous: c.nonContig}
		sameBodyEveryTime(t, ts.URL+"/v1/join", req, true)
		status, pairs, stats, errLine := postJoin(t, ts.URL, req)
		if status != http.StatusOK || errLine != "" {
			t.Fatalf("%v: HTTP %d, error %q", c.relations, status, errLine)
		}
		rels, err := ParseRelationSet(c.relations)
		if err != nil {
			t.Fatal(err)
		}
		want, err := query.JoinTopological(li, ri, rels, query.JoinOptions{NonContiguous: c.nonContig})
		if err != nil {
			t.Fatal(err)
		}
		got := wireJoinPairSet(t, pairs)
		if len(got) != len(want.Pairs) {
			t.Fatalf("%v: %d pairs over the wire, want %d", c.relations, len(got), len(want.Pairs))
		}
		for _, p := range want.Pairs {
			if !got[[2]uint64{p.LeftOID, p.RightOID}] {
				t.Fatalf("%v: missing pair (%d,%d)", c.relations, p.LeftOID, p.RightOID)
			}
		}
		if stats == nil || stats.Pairs != len(want.Pairs) || stats.NodeAccesses != want.Stats.NodeAccesses {
			t.Fatalf("%v: wire stats %+v, want pairs=%d accesses=%d",
				c.relations, stats, len(want.Pairs), want.Stats.NodeAccesses)
		}
	}
}

// TestJoinSelfJoin checks that an empty right index name joins the
// left index with itself, dropping identity pairs unless
// keep_self_pairs is set.
func TestJoinSelfJoin(t *testing.T) {
	srv, ts := newJoinTestServer(t, Config{}, 800, 10)
	li := joinIdx(t, srv, "left")
	rels, err := ParseRelationSet([]string{"overlap", "equal"})
	if err != nil {
		t.Fatal(err)
	}
	for _, keep := range []bool{false, true} {
		status, pairs, stats, errLine := postJoin(t, ts.URL, JoinRequest{
			Left: "left", Relations: []string{"overlap", "equal"}, KeepSelfPairs: keep,
		})
		if status != http.StatusOK || errLine != "" {
			t.Fatalf("keep=%v: HTTP %d, error %q", keep, status, errLine)
		}
		want, err := query.JoinTopological(li, li, rels, query.JoinOptions{KeepSelfPairs: keep})
		if err != nil {
			t.Fatal(err)
		}
		got := wireJoinPairSet(t, pairs)
		if len(got) != len(want.Pairs) {
			t.Fatalf("keep=%v: %d pairs over the wire, want %d", keep, len(got), len(want.Pairs))
		}
		identity := 0
		for k := range got {
			if k[0] == k[1] {
				identity++
			}
		}
		if keep && identity == 0 {
			t.Fatal("keep_self_pairs=true returned no identity pairs")
		}
		if !keep && identity != 0 {
			t.Fatalf("self-join leaked %d identity pairs", identity)
		}
		if stats == nil || stats.Pairs != len(want.Pairs) {
			t.Fatalf("keep=%v: stats %+v, want pairs=%d", keep, stats, len(want.Pairs))
		}
	}
}

// TestJoinLimit checks that limit caps the stream and is reflected in
// the trailing stats line.
func TestJoinLimit(t *testing.T) {
	_, ts := newJoinTestServer(t, Config{}, 1200, 1000)
	status, pairs, stats, errLine := postJoin(t, ts.URL, JoinRequest{
		Left: "left", Right: "right", Relations: []string{"not_disjoint"}, Limit: 7,
	})
	if status != http.StatusOK || errLine != "" {
		t.Fatalf("HTTP %d, error %q", status, errLine)
	}
	if len(pairs) != 7 || stats == nil || stats.Pairs != 7 {
		t.Fatalf("limit 7 delivered %d pairs, stats %+v", len(pairs), stats)
	}
}

// TestJoinBadRequests covers the pre-stream error paths, including the
// R+-tree rejection (space-partitioning indexes cannot be joined by
// synchronized traversal).
func TestJoinBadRequests(t *testing.T) {
	srv, ts := newJoinTestServer(t, Config{}, 100, 100)
	d := workload.NewDataset(workload.Medium, 100, 0, 7)
	if _, err := srv.AddIndex(IndexSpec{Name: "rplus", Kind: index.KindRPlus, PageSize: 512}, d.Items); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		req  JoinRequest
		code int
	}{
		{JoinRequest{Left: "nope", Right: "right", Relations: []string{"overlap"}}, http.StatusNotFound},
		{JoinRequest{Left: "left", Right: "nope", Relations: []string{"overlap"}}, http.StatusNotFound},
		{JoinRequest{Left: "left", Right: "right", Relations: nil}, http.StatusBadRequest},
		{JoinRequest{Left: "left", Right: "right", Relations: []string{"sideways"}}, http.StatusBadRequest},
		{JoinRequest{Left: "left", Right: "rplus", Relations: []string{"overlap"}}, http.StatusBadRequest},
		{JoinRequest{Left: "rplus", Relations: []string{"overlap"}}, http.StatusBadRequest},
	}
	for i, c := range cases {
		status, _, _, errLine := postJoin(t, ts.URL, c.req)
		if status != c.code {
			t.Errorf("case %d: HTTP %d (%q), want %d", i, status, errLine, c.code)
		}
	}
	// A syntactically broken body never reaches the engine.
	resp, err := http.Post(ts.URL+"/v1/join", "application/json", bytes.NewReader([]byte("{not json")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("broken body: HTTP %d, want 400", resp.StatusCode)
	}
}

// TestJoinDeadline checks that a tiny request deadline truncates the
// stream (no stats line), counts a disconnect, and folds only a
// partial traversal into the metrics.
func TestJoinDeadline(t *testing.T) {
	srv, ts := newJoinTestServer(t, Config{}, 6000, 6000)
	li, ri := joinIdx(t, srv, "left"), joinIdx(t, srv, "right")
	full, err := query.JoinTopological(li, ri, topo.NotDisjoint, query.JoinOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if full.Stats.NodeAccesses < 500 {
		t.Fatalf("join too small to observe a deadline (full run reads %d pages)", full.Stats.NodeAccesses)
	}
	status, _, stats, _ := postJoin(t, ts.URL, JoinRequest{
		Left: "left", Right: "right", Relations: []string{"not_disjoint"}, TimeoutMS: 1,
	})
	if status != http.StatusOK {
		t.Fatalf("HTTP %d, want 200 (deadline fires mid-stream)", status)
	}
	if stats != nil {
		t.Fatalf("deadline-cut stream still carried a stats line %+v", stats)
	}
	if got := srv.Metrics().Disconnects(); got == 0 {
		t.Fatal("deadline cut was not counted as a disconnect")
	}
	if folded := srv.Metrics().JoinNodeAccessesTotal(); folded == 0 || folded >= full.Stats.NodeAccesses {
		t.Fatalf("deadline did not stop page reads: folded %d, full run is %d",
			folded, full.Stats.NodeAccesses)
	}
}

// TestJoinClientDisconnect checks that hanging up mid-stream stops the
// synchronized traversal.
func TestJoinClientDisconnect(t *testing.T) {
	srv, _ := newJoinTestServer(t, Config{}, 6000, 6000)
	li, ri := joinIdx(t, srv, "left"), joinIdx(t, srv, "right")
	full, err := query.JoinTopological(li, ri, topo.NotDisjoint, query.JoinOptions{})
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(JoinRequest{Left: "left", Right: "right", Relations: []string{"not_disjoint"}})
	if err != nil {
		t.Fatal(err)
	}
	hangUpAfterFirstLine(t, srv, "/v1/join", body)
	if folded := srv.Metrics().JoinNodeAccessesTotal(); folded == 0 || folded >= full.Stats.NodeAccesses {
		t.Fatalf("disconnect did not stop page reads: folded %d, full run is %d",
			folded, full.Stats.NodeAccesses)
	}
}

// TestJoinMetricsTotals checks that the join counters and histogram in
// the /metrics exposition equal the sums of per-request stats lines.
func TestJoinMetricsTotals(t *testing.T) {
	srv, ts := newJoinTestServer(t, Config{}, 1200, 1000)
	var wantPairs, wantAccesses uint64
	for _, relations := range [][]string{{"overlap"}, {"meet", "covers"}, {"not_disjoint"}} {
		status, pairs, stats, errLine := postJoin(t, ts.URL, JoinRequest{
			Left: "left", Right: "right", Relations: relations,
		})
		if status != http.StatusOK || errLine != "" || stats == nil {
			t.Fatalf("%v: HTTP %d, error %q, stats %+v", relations, status, errLine, stats)
		}
		if stats.Pairs != len(pairs) {
			t.Fatalf("%v: stats line says %d pairs, stream carried %d", relations, stats.Pairs, len(pairs))
		}
		wantPairs += uint64(stats.Pairs)
		wantAccesses += stats.NodeAccesses
	}
	if got := srv.Metrics().JoinPairsTotal(); got != wantPairs {
		t.Fatalf("folded join pairs %d, per-request sum %d", got, wantPairs)
	}
	if got := srv.Metrics().JoinNodeAccessesTotal(); got != wantAccesses {
		t.Fatalf("folded join accesses %d, per-request sum %d", got, wantAccesses)
	}
	if got := scrapeCounterValue(t, ts.URL, "topod_join_pairs_total"); got != wantPairs {
		t.Fatalf("/metrics topod_join_pairs_total = %d, want %d", got, wantPairs)
	}
	if got := scrapeCounterValue(t, ts.URL, "topod_join_node_accesses_total"); got != wantAccesses {
		t.Fatalf("/metrics topod_join_node_accesses_total = %d, want %d", got, wantAccesses)
	}
	if got := scrapeCounterValue(t, ts.URL, "topod_join_in_flight"); got != 0 {
		t.Fatalf("/metrics topod_join_in_flight = %d after drain, want 0", got)
	}
	if got := scrapeCounterValue(t, ts.URL, "topod_join_duration_seconds_count"); got != 3 {
		t.Fatalf("/metrics topod_join_duration_seconds_count = %d, want 3", got)
	}
}

// TestJoinSaturation checks the admission path on /v1/join: with the
// only slot held by a join blocked on an unread stream, a second join
// is shed with 429 + Retry-After, and the slot frees once the first
// client hangs up.
func TestJoinSaturation(t *testing.T) {
	_, ts := newJoinTestServer(t, Config{MaxInFlight: 1, RetryAfter: 2 * time.Second}, 4000, 4000)
	body, err := json.Marshal(JoinRequest{Left: "left", Right: "right", Relations: []string{"not_disjoint"}})
	if err != nil {
		t.Fatal(err)
	}
	// Hold the slot: open the stream, read one line, stop reading. The
	// handler blocks writing the multi-megabyte remainder.
	resp, err := http.Post(ts.URL+"/v1/join", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("holder join: HTTP %d", resp.StatusCode)
	}
	if _, err := bufio.NewReader(resp.Body).ReadString('\n'); err != nil {
		t.Fatal(err)
	}

	resp2, err := http.Post(ts.URL+"/v1/join", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated /v1/join answered %d, want 429", resp2.StatusCode)
	}
	if ra := resp2.Header.Get("Retry-After"); ra != "2" {
		t.Fatalf("Retry-After = %q, want \"2\"", ra)
	}

	// Hang up the holder; the slot frees and a bounded join succeeds.
	resp.Body.Close()
	deadline := time.Now().Add(10 * time.Second)
	for {
		status, pairs, _, _ := postJoin(t, ts.URL, JoinRequest{
			Left: "left", Right: "right", Relations: []string{"overlap"}, Limit: 3,
		})
		if status == http.StatusOK {
			if len(pairs) != 3 {
				t.Fatalf("post-drain join delivered %d pairs, want 3", len(pairs))
			}
			break
		}
		if status != http.StatusTooManyRequests {
			t.Fatalf("post-drain join: HTTP %d", status)
		}
		if time.Now().After(deadline) {
			t.Fatal("admission slot never freed after the holder hung up")
		}
		time.Sleep(10 * time.Millisecond)
	}
}
