// Command bench is the repository's one benchmark harness: it builds
// cmd/topod, runs it as a separate process on the one CPU it confines
// itself to, drives it over loopback HTTP in a closed loop beside a
// reference server whose speed corrects the timings for the host's,
// checks the answers against a brute-force oracle, and attributes the
// time to layers with a traced in-process replay. See README.md in this
// directory.
//
// One workload, the way BENCHMARK.json's command is run:
//
//	bash bench/run.sh --workload window --seed 1995 --seconds 10 --trace 0
//
// All five workloads, both passes, one report with the reproducibility
// record:
//
//	bash bench/run.sh -seed 1995 -out bench/out
//
// Two reports against the regression bounds:
//
//	bash bench/run.sh -compare bench/out/a.json bench/out/b.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
)

// report is the full run's output file.
type report struct {
	// Claim is null: this harness defines the baseline and claims no gain.
	Claim     *string `json:"claim"`
	Commit    string  `json:"commit"`
	GoVersion string  `json:"go_version"`
	NProc     int     `json:"nproc"`
	// The generator, topod and the reference server share PinnedCPU, so
	// each runs with GOMAXPROCS 1: the generator sets it, a Go child reads
	// it off its affinity mask.
	PinnedCPU           int       `json:"pinned_cpu"`
	GOMAXPROCSGenerator int       `json:"gomaxprocs_generator"`
	GOMAXPROCSServer    int       `json:"gomaxprocs_server"`
	Seed                int64     `json:"seed"`
	Objects             int       `json:"objects"`
	JoinObjects         int       `json:"join_objects_per_side"`
	RunSeconds          int       `json:"run_seconds"`
	Workloads           []*result `json:"workloads"`
}

func main() {
	workload := flag.String("workload", "", "run this one workload and print the result object as the last line (default: all five)")
	seed := flag.Int64("seed", 1995, "seed of the dataset and of every request stream")
	seconds := flag.Int("seconds", 10, "length of the measured window")
	trace := flag.Int("trace", 0, "with -workload: 0 prints the end-to-end metrics, 1 also runs the traced pass and prints the per-layer metrics")
	out := flag.String("out", "bench/out", "directory for the report, the trace files and scratch data")
	compare := flag.Bool("compare", false, "compare two report files given as arguments instead of measuring")
	null := flag.Bool("null", false, "serve as the reference server on -addr (the harness starts itself this way)")
	addr := flag.String("addr", "127.0.0.1:0", "with -null: the address to listen on")
	flag.Parse()
	if *null {
		fmt.Fprintln(os.Stderr, "bench:", serveNull(*addr))
		os.Exit(2)
	}

	code, err := run(*workload, *seed, *seconds, *trace, *out, *compare, flag.Args())
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		if code == 0 {
			code = 2
		}
	}
	os.Exit(code)
}

func run(workload string, seed int64, seconds, trace int, out string, compare bool, args []string) (int, error) {
	if compare {
		if len(args) != 2 {
			return 2, errors.New("-compare needs two report files")
		}
		return compareReports(os.Stdout, args[0], args[1])
	}
	if seconds < 1 || trace < 0 || trace > 1 {
		return 2, errors.New("-seconds must be positive and -trace 0 or 1")
	}
	root, err := repoRoot()
	if err != nil {
		return 2, err
	}
	if !filepath.IsAbs(out) {
		out = filepath.Join(root, out)
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return 2, err
	}
	bin, err := buildTopod(root, out)
	if err != nil {
		return 2, err
	}
	// Built on every core, measured on one: see pinToOneCPU.
	nproc := runtime.NumCPU()
	cpu, err := pinToOneCPU()
	if err != nil {
		return 2, err
	}
	runtime.GOMAXPROCS(1)
	e := &env{outDir: out, topodBin: bin, client: newHTTPClient(nproc), nproc: nproc}
	sc := fullScale(seconds)

	// Children carry Pdeathsig, so dying on a signal takes topod along.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() { <-sigc; os.Exit(130) }()

	if workload != "" {
		res, err := runWorkload(e, workload, seed, sc, trace == 1)
		if err != nil {
			return 2, err
		}
		return printContract(res, trace == 1)
	}

	rep := &report{
		Commit: commit(root), GoVersion: runtime.Version(), NProc: nproc, PinnedCPU: cpu,
		GOMAXPROCSGenerator: runtime.GOMAXPROCS(0), GOMAXPROCSServer: 1,
		Seed: seed, Objects: sc.n, JoinObjects: sc.joinN, RunSeconds: seconds,
	}
	code := 0
	for _, name := range workloadNames {
		res, err := runWorkload(e, name, seed, sc, true)
		if err != nil {
			return 2, fmt.Errorf("%s: %w", name, err)
		}
		printMetrics(res)
		if res.Failed > 0 {
			code = 1
		}
		rep.Workloads = append(rep.Workloads, res)
	}
	raw, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return 2, err
	}
	path := filepath.Join(out, "bench.json")
	if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
		return 2, err
	}
	fmt.Println("report:", path)
	return code, nil
}

// runWorkload runs one workload's main pass and, when traced, its
// in-process replay.
func runWorkload(e *env, name string, seed int64, sc scale, traced bool) (*result, error) {
	dir, err := scratchDir(e, name)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	p, err := buildPlan(name, seed, sc, dir)
	if err != nil {
		return nil, err
	}
	if len(p.streams) > e.nproc {
		return nil, fmt.Errorf("%s needs %d clients but the generator may open only nproc=%d connections", name, len(p.streams), e.nproc)
	}
	res, err := runMain(e, p, dir, sc)
	if err != nil {
		return nil, err
	}
	if traced {
		if err := tracedPass(e, p, dir, sc, seed, res); err != nil {
			return nil, fmt.Errorf("traced pass: %w", err)
		}
	}
	return res, nil
}

// repoRoot walks up from the working directory to the module that owns
// cmd/topod.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "topod", "main.go")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("cmd/topod not found in any parent directory: run from inside the repository")
		}
		dir = parent
	}
}

// commit names the measured source; a checkout without git history
// reports "unknown".
func commit(root string) string {
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	outp, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(outp))
}

// printMetrics prints every measured metric of a workload by name and
// unit, in catalogue order, with the sample count behind a timing.
func printMetrics(res *result) {
	fmt.Printf("== %s: %d attempted, %d failed ==\n", res.Workload, res.Attempted, res.Failed)
	for _, e := range res.Errors {
		fmt.Println("  error:", e)
	}
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			v, ok := res.Metrics[d.name]
			if !ok {
				continue
			}
			line := fmt.Sprintf("  %-34s %14.4f %s", d.name, v, d.unit)
			if n, ok := res.Samples[d.name]; ok {
				line += fmt.Sprintf("  (n=%d)", n)
			}
			fmt.Println(line)
		}
	}
}

// printContract prints the metrics and, as the last line, the result
// object the benchmark driver reads: the end-to-end metrics, or with
// traced the per-layer ones (0 where the workload does not measure a
// layer). A correctness failure exits 1.
func printContract(res *result, traced bool) (int, error) {
	printMetrics(res)
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	metrics := make(map[string]value, len(defs))
	for _, d := range defs {
		v, ok := res.Metrics[d.name]
		if !ok && !traced {
			return 2, fmt.Errorf("%s did not produce the end-to-end metric %s", res.Workload, d.name)
		}
		metrics[d.name] = value{v, d.unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct": res.Failed == 0, "attempted": res.Attempted, "failed": res.Failed, "metrics": metrics,
	})
	if err != nil {
		return 2, err
	}
	fmt.Println(string(line))
	if res.Failed > 0 {
		return 1, nil
	}
	return 0, nil
}
