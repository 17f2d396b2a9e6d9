package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"slices"
	"testing"
	"time"
)

// benchmarkJSON is the driver's contract file at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestCatalogueMatchesBenchmarkJSON keeps BENCHMARK.json and the
// catalogue the harness emits from in step: same names, units,
// directions and bounds, in the same order.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	unique := func(n string) {
		t.Helper()
		if !name.MatchString(n) {
			t.Errorf("name %q does not match %s", n, name)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}

	var got []string
	for _, w := range bj.Workloads {
		unique(w.Name)
		got = append(got, w.Name)
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if !slices.Equal(got, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, harness runs %v", got, workloadNames)
	}
	if len(bj.EndToEnd) != len(endToEnd) || len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d+%d metrics, the catalogue %d+%d",
			len(bj.EndToEnd), len(bj.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, d := range endToEnd {
		unique(d.name)
		if j := bj.EndToEnd[i]; j.Name != d.name || j.Unit != d.unit || j.Better != d.better || j.Bound != d.bound {
			t.Errorf("end_to_end[%d] = %+v, catalogue has %+v", i, j, d)
		}
		if d.bound <= 0 || d.bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.name, d.bound)
		}
	}
	for i, d := range perLayer {
		unique(d.name)
		if j := bj.PerLayer[i]; j.Name != d.name || j.Unit != d.unit || j.Better != d.better {
			t.Errorf("per_layer[%d] = %+v, catalogue has %+v", i, j, d)
		}
	}
	if bj.RunSeconds < 1 || bj.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", bj.RunSeconds)
	}
}

// smokeScale is small enough for `go test`: 2000 objects, a 1.5 s window.
func smokeScale() scale {
	return scale{
		n: 2000, joinN: 1000,
		window: 1500 * time.Millisecond,
		slice:  100 * time.Millisecond, joinSlice: 300 * time.Millisecond,
		warm: 80, setups: 1,
		replay: 200, replayBudget: time.Second,
		fixtureOps: 50,
	}
}

// TestMain lets the test binary stand in for the harness binary when the
// harness starts itself as the reference server.
func TestMain(m *testing.M) {
	if slices.Contains(os.Args[1:], "-null") {
		fmt.Fprintln(os.Stderr, serveNull("127.0.0.1:0"))
		os.Exit(2)
	}
	os.Exit(m.Run())
}

func smokeEnv(t *testing.T) *env {
	t.Helper()
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	out := t.TempDir()
	bin, err := buildTopod(root, out)
	if err != nil {
		t.Fatal(err)
	}
	nproc := max(runtime.NumCPU(), 2)
	return &env{outDir: out, topodBin: bin, client: newHTTPClient(nproc), nproc: nproc}
}

// TestSmoke runs every workload end to end at toy scale — a real topod
// process, the oracle, the durability check, the traced pass — and
// checks the report's shape: each workload emits exactly the metrics the
// catalogue assigns to it, and the trace file's spans nest.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots topod processes")
	}
	e := smokeEnv(t)
	for _, name := range workloadNames {
		res, err := runWorkload(e, name, 1995, smokeScale(), true)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: %d of %d operations failed: %v", name, res.Failed, res.Attempted, res.Errors)
		}
		known := map[string]bool{}
		for _, d := range slices.Concat(endToEnd, perLayer) {
			known[d.name] = true
			v, ok := res.Metrics[d.name]
			switch {
			case ok != d.appliesTo(name):
				t.Errorf("%s: metric %s emitted=%v, catalogue says applies=%v", name, d.name, ok, d.appliesTo(name))
			case ok && (math.IsNaN(v) || math.IsInf(v, 0)):
				t.Errorf("%s: metric %s = %v", name, d.name, v)
			case ok && d.bound > 0 && v <= 0:
				t.Errorf("%s: end-to-end metric %s = %v, must be positive", name, d.name, v)
			}
		}
		for got := range res.Metrics {
			if !known[got] {
				t.Errorf("%s: emitted metric %s is not in the catalogue", name, got)
			}
		}
		if code, err := printContract(res, true); code != 0 || err != nil {
			t.Errorf("%s: printContract = %d, %v", name, code, err)
		}
		checkTrace(t, filepath.Join(e.outDir, "trace-"+name+".json"))
	}
}

// checkTrace asserts the span file's invariants: ids are positions,
// every child lies inside its parent, siblings do not overlap, and so
// no span has negative self time.
func checkTrace(t *testing.T, path string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(raw, &tf); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if len(tf.Spans) == 0 {
		t.Fatalf("%s: no spans", path)
	}
	covered := make([]int64, len(tf.Spans)+1)
	lastChildEnd := make([]int64, len(tf.Spans)+1)
	for i, s := range tf.Spans {
		if s.ID != i+1 || s.EndNS < s.StartNS || s.Parent >= s.ID {
			t.Fatalf("%s: malformed span %+v at position %d", path, s, i)
		}
		if s.Parent == 0 {
			continue
		}
		p := tf.Spans[s.Parent-1]
		if s.StartNS < p.StartNS || s.EndNS > p.EndNS || s.Request != p.Request {
			t.Errorf("%s: span %+v is not inside its parent %+v", path, s, p)
		}
		if s.StartNS < lastChildEnd[s.Parent] {
			t.Errorf("%s: span %+v overlaps its previous sibling", path, s)
		}
		lastChildEnd[s.Parent] = s.EndNS
		covered[s.Parent] += s.EndNS - s.StartNS
	}
	for _, s := range tf.Spans {
		if self := s.EndNS - s.StartNS - covered[s.ID]; self < 0 {
			t.Errorf("%s: span %+v has self time %d ns", path, s, self)
		}
	}
}

// TestNodeAccessesRepeat: the paper's metric must not depend on the
// run. Same seed, two topod processes, identical accesses per request.
func TestNodeAccessesRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("boots topod processes")
	}
	e := smokeEnv(t)
	sc := smokeScale()
	sc.window = 250 * time.Millisecond
	var seen []float64
	for run := 0; run < 2; run++ {
		res, err := runWorkload(e, wTopo, 7, sc, false)
		if err != nil {
			t.Fatal(err)
		}
		seen = append(seen, res.Metrics["rtree.node_accesses_per_op"])
	}
	if seen[0] != seen[1] || seen[0] == 0 {
		t.Errorf("rtree.node_accesses_per_op = %v then %v with the same seed", seen[0], seen[1])
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
	if q1, q3 := quartiles([]float64{1, 2, 3, 4, 5}); q1 != 1.5 || q3 != 4.5 {
		t.Errorf("quartiles = %v, %v; want 1.5, 4.5", q1, q3)
	}
}

func TestPhaseRateEndsAtTheLastCompletion(t *testing.T) {
	// Two reads done by 0.5 s of a phase whose deadline was later, and a
	// write after them: the read rate is 2 per 0.5 s.
	s := []sample{
		{ok: true, done: 200 * time.Millisecond},
		{ok: true, done: 500 * time.Millisecond},
		{ok: true, kind: kInsert, done: 700 * time.Millisecond},
	}
	if got := phaseRate(s, isRead); math.Abs(got-4) > 1e-9 {
		t.Errorf("phaseRate = %v, want 4", got)
	}
	if got := phaseRate(nil, isRead); got != 0 {
		t.Errorf("phaseRate of no samples = %v, want 0", got)
	}
}

func TestCompareVerdicts(t *testing.T) {
	mk := func(p50 float64, slices []float64) *report {
		return &report{Workloads: []*result{{
			Workload: wWindow,
			Metrics:  map[string]float64{"lat_p50_ms": p50},
			Slices:   map[string][]float64{"lat_p50_ms": slices},
		}}}
	}
	dir := t.TempDir()
	write := func(name string, r *report) string {
		raw, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	steady := []float64{1, 1, 1, 1, 1}
	base := write("a.json", mk(1, steady))
	bound := endToEnd[slices.IndexFunc(endToEnd, func(d metricDef) bool { return d.name == "lat_p50_ms" })].bound
	for _, tc := range []struct {
		name    string
		b       *report
		verdict string
		code    int
	}{
		{"same", mk(1+bound/2, steady), "ok", 0},
		{"slower", mk(1+2*bound, steady), "regressed", 1},
		{"noisy", mk(1+2*bound, []float64{0.2, 0.6, 1, 1.4, 1.8}), "unresolved", 0},
	} {
		var out bytes.Buffer
		code, err := compareReports(&out, base, write(tc.name+".json", tc.b))
		if err != nil || code != tc.code {
			t.Errorf("%s: code %d, err %v; want code %d", tc.name, code, err, tc.code)
		}
		line := regexp.MustCompile(`lat_p50_ms.*`).FindString(out.String())
		if !regexp.MustCompile(tc.verdict + `$`).MatchString(line) {
			t.Errorf("%s: want verdict %s in %q", tc.name, tc.verdict, line)
		}
	}
}
