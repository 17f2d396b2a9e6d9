package server

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"mbrtopo/internal/geom"
	"mbrtopo/internal/index"
	"mbrtopo/internal/wal"
	"mbrtopo/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/metrics.golden from this run")

// lintExposition checks a Prometheus text exposition for the rules
// every family must keep, whoever registers it: one HELP line directly
// followed by one TYPE line before the family's samples, every sample
// under the family declared last, no series twice, and for histograms
// cumulative buckets that end in +Inf with _count equal to that bucket.
func lintExposition(text string) []string {
	var problems []string
	bad := func(n int, format string, args ...any) {
		problems = append(problems, fmt.Sprintf("line %d: ", n)+fmt.Sprintf(format, args...))
	}
	var family, typ, helpFor string
	declared := map[string]bool{}
	series := map[string]bool{}
	lastBucket := map[string]float64{} // histogram labels (le removed) → last cumulative count
	infBucket := map[string]float64{}
	leLabel := regexp.MustCompile(`,?le="([^"]*)"`)
	for i, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		n := i + 1
		switch {
		case strings.HasPrefix(line, "# HELP "):
			name, _, _ := strings.Cut(strings.TrimPrefix(line, "# HELP "), " ")
			if declared[name] {
				bad(n, "family %s declared twice", name)
			}
			declared[name] = true
			helpFor = name
			continue
		case strings.HasPrefix(line, "# TYPE "):
			f := strings.Fields(line)
			if len(f) != 4 || f[2] != helpFor {
				bad(n, "TYPE line does not follow the HELP line of its family: %q", line)
				continue
			}
			family, typ, helpFor = f[2], f[3], ""
			continue
		case strings.HasPrefix(line, "#") || line == "":
			continue
		}
		if helpFor != "" {
			bad(n, "HELP %s has no TYPE line", helpFor)
			helpFor = ""
		}
		id, value, ok := strings.Cut(line, " ")
		v, err := strconv.ParseFloat(value, 64)
		if !ok || err != nil {
			bad(n, "unparsable sample %q", line)
			continue
		}
		if series[id] {
			bad(n, "series %s appears twice", id)
		}
		series[id] = true
		name, labels, _ := strings.Cut(id, "{")
		suffix := strings.TrimPrefix(name, family)
		if !strings.HasPrefix(name, family) || family == "" {
			bad(n, "sample %s is not under its family's HELP/TYPE (last declared: %q)", name, family)
			continue
		}
		if typ != "histogram" {
			if suffix != "" {
				bad(n, "sample %s under %s family %s", name, typ, family)
			}
			continue
		}
		key := family + "{" + strings.TrimSuffix(leLabel.ReplaceAllString(labels, ""), "}")
		switch suffix {
		case "_bucket":
			le := leLabel.FindStringSubmatch(labels)
			if le == nil {
				bad(n, "bucket without le label: %s", id)
				continue
			}
			if _, closed := infBucket[key]; closed {
				bad(n, "bucket after +Inf: %s", id)
			}
			if v < lastBucket[key] {
				bad(n, "buckets not cumulative at %s", id)
			}
			lastBucket[key] = v
			if le[1] == "+Inf" {
				infBucket[key] = v
			}
		case "_sum":
		case "_count":
			if inf, ok := infBucket[key]; !ok || inf != v {
				bad(n, "%s = %v, +Inf bucket = %v (present %v)", id, v, inf, ok)
			}
		default:
			bad(n, "sample %s under histogram family %s", name, family)
		}
	}
	for key := range lastBucket {
		if _, ok := infBucket[key]; !ok {
			problems = append(problems, "histogram "+key+" has no +Inf bucket")
		}
	}
	return problems
}

func TestLintExposition(t *testing.T) {
	good := "# HELP a_total A.\n# TYPE a_total counter\na_total{x=\"1\"} 2\n" +
		"# HELP h_seconds H.\n# TYPE h_seconds histogram\n" +
		"h_seconds_bucket{e=\"q\",le=\"1\"} 1\nh_seconds_bucket{e=\"q\",le=\"+Inf\"} 3\nh_seconds_sum{e=\"q\"} 0.5\nh_seconds_count{e=\"q\"} 3\n"
	if p := lintExposition(good); len(p) != 0 {
		t.Fatalf("well-formed exposition rejected: %v", p)
	}
	for name, text := range map[string]string{
		"no TYPE":          "# HELP a_total A.\na_total 1\n",
		"sample first":     "a_total 1\n# HELP a_total A.\n# TYPE a_total counter\n",
		"family twice":     "# HELP a A.\n# TYPE a gauge\na 1\n# HELP a A.\n# TYPE a gauge\n",
		"duplicate series": "# HELP a A.\n# TYPE a gauge\na{i=\"x\"} 1\na{i=\"x\"} 2\n",
		"foreign sample":   "# HELP a A.\n# TYPE a gauge\nb 1\n",
		"not cumulative":   "# HELP h H.\n# TYPE h histogram\nh_bucket{le=\"1\"} 2\nh_bucket{le=\"+Inf\"} 1\nh_sum 0\nh_count 1\n",
		"no +Inf":          "# HELP h H.\n# TYPE h histogram\nh_bucket{le=\"1\"} 2\nh_sum 0\nh_count 2\n",
		"count mismatch":   "# HELP h H.\n# TYPE h histogram\nh_bucket{le=\"+Inf\"} 2\nh_sum 0\nh_count 3\n",
	} {
		if p := lintExposition(text); len(p) == 0 {
			t.Errorf("%s: malformed exposition accepted", name)
		}
	}
}

// clockSamples are the series whose values are readings of a clock —
// latency buckets and sums, time spent in fsync, time since the primary
// was heard — or depend on one (a stream's 1 ms flush rule, and the
// socket writes that follow it). The golden comparison keeps their
// names and labels and masks the value.
var clockSamples = regexp.MustCompile(`(?m)^(topod_(?:request|join|watch_notify)_duration_seconds_(?:bucket|sum)|` +
	`topod_wal_commit_seconds_total|topod_repl_lag_seconds|topod_(?:stream_flushes|socket_writes)_total)(\{[^}]*\})? .*$`)

func scrape(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if p := lintExposition(string(body)); len(p) != 0 {
		t.Errorf("%s/metrics is malformed:\n%s", base, strings.Join(p, "\n"))
	}
	return clockSamples.ReplaceAllString(string(body), "$1$2 CLOCK")
}

// TestMetricsGolden pins the /metrics exposition — names, help, label
// and family order, number formats — of a primary and of a follower
// after a fixed script that touches every family: queries (single term,
// conjunction, cache hit), a join, kNN, insert/delete/bulk on a
// durable index across a checkpoint, an open watch
// stream, a 429, a 400, a 404, the probes, and a replica that
// bootstrapped and tailed it all. Run with -update to rewrite the file.
func TestMetricsGolden(t *testing.T) {
	d := workload.NewDataset(workload.Medium, 300, 4, 1995)
	other := workload.NewDataset(workload.Medium, 200, 0, 1302)
	// No heartbeats and no stall timeout: replication byte counts then
	// depend on the script alone.
	psrv := New(Config{CacheSize: 16, ReplHeartbeat: time.Hour})
	for _, spec := range []IndexSpec{
		{Name: "main", Kind: index.KindRTree, Dir: t.TempDir(), CheckpointEvery: 4},
		{Name: "second", Kind: index.KindRStar},
	} {
		spec.PageSize, spec.Fsync = 512, wal.SyncNever
		items := d.Items
		if spec.Name == "second" {
			items = other.Items
		}
		if _, err := psrv.AddIndex(spec, items); err != nil {
			t.Fatal(err)
		}
	}
	pts := startServer(psrv, psrv.Handler())
	t.Cleanup(pts.Close)
	fsrv, fts := newReplFollower(t, pts.URL, nil, FollowConfig{StallTimeout: time.Hour})
	waitCaughtUp(t, psrv, fsrv)

	watch := openWatch(t, pts.URL, WatchRequest{Index: "main", Relations: []string{"not_disjoint"}, Ref: []float64{0, 0, 1000, 1000}})

	win := func(r geom.Rect) []float64 { w := RectToWire(r); return w[:] }
	q := QueryRequest{Index: "main", Relations: []string{"overlap"}, Ref: win(d.Queries[0])}
	rawQuery(t, pts.URL, q)
	rawQuery(t, pts.URL, q) // cache hit
	rawQuery(t, pts.URL, QueryRequest{Index: "main", Relations: []string{"not_disjoint"}, Ref: win(d.Queries[1]),
		Relations2: []string{"not_disjoint"}, Ref2: win(d.Queries[2])})
	rawQuery(t, pts.URL, QueryRequest{Index: "main", Relations: []string{"inside"}, Ref: []float64{0, 0, 10, 10},
		Relations2: []string{"contains"}, Ref2: []float64{0, 0, 10, 10}}) // provably empty
	if status, _, _, errLine := postJoin(t, pts.URL, JoinRequest{Left: "main", Right: "second", Relations: []string{"overlap"}}); status != http.StatusOK || errLine != "" {
		t.Fatalf("join: HTTP %d %s", status, errLine)
	}
	getKNN(t, pts.URL, "main", geom.Point{X: 500, Y: 500}, 3)

	// The replica catches up after each commit, so that each reaches it
	// in reads of its own and its group-commit counts are the script's.
	for i := 0; i < 3; i++ {
		x := float64(100 + 150*i)
		if st, er := postStatus(t, pts.URL+"/v1/insert", UpdateRequest{Index: "main", OID: uint64(9000 + i), Rect: []float64{x, x, x + 20, x + 30}}); st != http.StatusOK {
			t.Fatalf("insert: HTTP %d (%s)", st, er.Error)
		}
		waitCaughtUp(t, psrv, fsrv)
	}
	if st, er := postStatus(t, pts.URL+"/v1/delete", UpdateRequest{Index: "main", OID: 9001, Rect: []float64{250, 250, 270, 280}}); st != http.StatusOK {
		t.Fatalf("delete: HTTP %d (%s)", st, er.Error)
	}
	waitCaughtUp(t, psrv, fsrv)
	resp, err := http.Post(pts.URL+"/v1/bulk?index=main", "application/x-ndjson", strings.NewReader(
		`{"oid":9100,"rect":[5,5,9,9]}`+"\n"+`{"oid":9101,"rect":[300,300,330,330]}`+"\n"+`{"oid":9102,"rect":[700,100,720,140]}`+"\n"))
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("bulk into main: %v %v", err, resp)
	}
	resp.Body.Close()
	if st, _ := postStatus(t, pts.URL+"/v1/delete", UpdateRequest{Index: "main", OID: 424242, Rect: []float64{1, 1, 2, 2}}); st != http.StatusNotFound {
		t.Fatalf("delete of a missing entry: HTTP %d, want 404", st)
	}
	if st, _ := postStatus(t, pts.URL+"/v1/query", QueryRequest{Index: "main", Relations: []string{"beside"}, Ref: []float64{0, 0, 1, 1}}); st != http.StatusBadRequest {
		t.Fatalf("bad relation: HTTP %d, want 400", st)
	}
	// Saturate admission by hand: the next /v1 request is shed.
	for i := 0; i < cap(psrv.adm.sem); i++ {
		psrv.adm.sem <- struct{}{}
	}
	if resp, err := http.Get(pts.URL + "/v1/indexes"); err != nil || resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated server: %v %v, want 429", err, resp)
	} else {
		resp.Body.Close()
	}
	for i := 0; i < cap(psrv.adm.sem); i++ {
		<-psrv.adm.sem
	}
	for _, path := range []string{"/healthz", "/readyz", "/v1/indexes"} {
		resp, err := http.Get(pts.URL + path)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %v %v", path, err, resp)
		}
		resp.Body.Close()
	}

	waitCaughtUp(t, psrv, fsrv)
	rawQuery(t, fts.URL, q)
	if st, _ := postStatus(t, fts.URL+"/v1/insert", UpdateRequest{Index: "main", OID: 1, Rect: []float64{1, 1, 2, 2}}); st != http.StatusForbidden {
		t.Fatalf("write on the follower: HTTP %d, want 403", st)
	}
	got := "== primary ==\n" + scrape(t, pts.URL) + "== follower ==\n" + scrape(t, fts.URL)

	// Ending the streams belongs to the script only in that nothing may
	// hang: the drain line arrives and both readers finish.
	psrv.DrainWatchers()
	watch.wait(t)

	const path = "testdata/metrics.golden"
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Fatalf("/metrics differs from %s at line %d:\n got: %s\nwant: %s\n(%d lines against %d; go test -run TestMetricsGolden -update rewrites the file)",
					path, i+1, g, w, len(gl), len(wl))
			}
		}
	}
}

func getKNN(t *testing.T, base, name string, p geom.Point, k int) KNNResponse {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("%s/v1/knn?index=%s&k=%d&x=%g&y=%g", base, name, k, p.X, p.Y))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		t.Fatalf("knn status %d: %s", resp.StatusCode, msg)
	}
	var out KNNResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestMetricsScrapeIsOneSocketWrite: a /metrics scrape, some 30 KB
// that net/http alone would split at its buffers, leaves in one socket
// write, headers included, and declares its length.
func TestMetricsScrapeIsOneSocketWrite(t *testing.T) {
	srv, ts, _ := newTestServer(t, Config{}, 2000, index.KindRStar)
	var last uint64
	for i := 0; i < 4; i++ {
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if len(body) < 8<<10 || resp.ContentLength != int64(len(body)) {
			t.Fatalf("a %d-byte exposition came with Content-Length %d", len(body), resp.ContentLength)
		}
		if got := srv.metrics.socketWrites.Load(); i > 0 && got-last != 1 {
			t.Fatalf("scrape %d made %d socket writes, want 1", i, got-last)
		} else {
			last = got
		}
	}
}
