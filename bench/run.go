package main

import (
	"bytes"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"syscall"
	"time"
)

// scale sizes a run. fullScale is what BENCHMARK.json measures; the
// smoke test shrinks everything.
type scale struct {
	n, joinN int           // objects in the main index / per join side
	window   time.Duration // the measured window
	// The window is cut into consecutive slices of this length, four
	// fifths of each spent on topod and one fifth on the reference server.
	// Short slices keep each reference reading close in time to what it
	// corrects; joinSlice is longer because a join takes 33 ms and a slice
	// should hold the four relations a few times over.
	slice, joinSlice time.Duration
	warm             int // warm-up requests per client
	setups           int // set-up repetitions; setup_s is their median
	replay           int // requests replayed by the traced pass, at most
	// replayBudget caps the replay's wall time: a join is four orders of
	// magnitude slower than a topo query and cannot be replayed 2000
	// times. The sample count is reported next to every median.
	replayBudget time.Duration
	fixtureOps   int // operations per layer micro-measurement
}

func fullScale(seconds int) scale {
	return scale{
		n: 100000, joinN: 10000,
		window: time.Duration(seconds) * time.Second,
		slice:  100 * time.Millisecond, joinSlice: 500 * time.Millisecond,
		warm: 100, setups: 9,
		replay: 2000, replayBudget: 3 * time.Second,
		fixtureOps: 1000,
	}
}

// env is what every workload of one invocation shares.
type env struct {
	outDir   string // traces, the report, and scratch data directories
	topodBin string
	client   *http.Client
	nproc    int
}

// result is one workload's report.
type result struct {
	Workload string `json:"workload"`
	// TopodArgv is every topod command line the run executed, in order.
	TopodArgv [][]string         `json:"topod_argv"`
	Clients   int                `json:"clients"`
	Objects   int                `json:"objects"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Errors    []string           `json:"errors,omitempty"`
	Metrics   map[string]float64 `json:"metrics"`
	// Slices holds the per-slice values behind every metric reported as
	// a median of slices; SetupRuns the set-ups behind setup_s.
	Slices    map[string][]float64 `json:"slices"`
	SetupRuns []float64            `json:"setup_runs_s"`
	// Samples counts the observations behind timing metrics.
	Samples map[string]int `json:"samples"`
}

func (r *result) fail(n int, format string, args ...any) {
	r.Failed += n
	if len(r.Errors) < 10 {
		r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
	}
}

func isRead(s sample) bool  { return s.ok && s.kind <= kJoin }
func isWrite(s sample) bool { return s.ok && s.kind >= kInsert }

func selfCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// runMain is the end-to-end pass of one workload: set-up (repeated),
// correctness prefix, the closed-loop window against a separate topod
// process with tracing off, and the workload's shutdown checks.
func runMain(e *env, p *plan, dir string, sc scale) (*result, error) {
	res := &result{
		Workload: p.name, Clients: len(p.streams), Objects: len(p.items),
		Metrics: map[string]float64{}, Slices: map[string][]float64{}, Samples: map[string]int{},
	}
	var srv *topod
	defer func() {
		if srv != nil {
			srv.kill()
		}
	}()
	boot := func(argv []string) error {
		var err error
		srv, err = startServer(e.client, e.topodBin, argv)
		if err == nil {
			res.TopodArgv = append(res.TopodArgv, srv.argv)
		}
		return err
	}

	// The reference server runs beside topod for the whole run; the same
	// clients drive one or the other, never both.
	null, err := startNull(e.client)
	if err != nil {
		return nil, err
	}
	defer null.kill()
	nullStreams := make([][]request, len(p.streams))
	for c := range nullStreams {
		nullStreams[c] = []request{p.null.request(p.streams[0][0].body)}
	}
	if err := runCount(e.client, null.base, nullStreams, p.warm); err != nil {
		return nil, err
	}
	// hostSpeed drives the reference server for d and returns the rate it
	// reached over its nominal rate: how fast the host is right now.
	hostSpeed := func(d time.Duration) (float64, error) {
		perClient, _, err := runClosedLoop(e.client, null.base, nullStreams, make([]int, len(nullStreams)), d)
		if err != nil {
			return 0, err
		}
		ref := slices.Concat(perClient...)
		if slices.ContainsFunc(ref, func(s sample) bool { return !s.ok }) {
			return 0, fmt.Errorf("the reference server failed a request")
		}
		return phaseRate(ref, isRead) / p.null.nominal, nil
	}

	// Set-up, several times over so one slow boot cannot move setup_s.
	var ver verifyResult
	var rawSetups, peaks []float64 // peaks: VmHWM of every topod booted
	for rep := 0; rep < sc.setups; rep++ {
		if srv != nil {
			srv.kill()
			srv = nil
		}
		if p.durable {
			if err := os.RemoveAll(dir); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		if err := boot(p.argv); err != nil {
			return nil, err
		}
		if p.rebootInSetup {
			// Cold flat boot: the first process generated, packed and
			// checkpointed; the one measured serves from the directory alone.
			if err := srv.terminate(); err != nil {
				return nil, err
			}
			srv = nil
			if err := boot(p.rebootArgv); err != nil {
				return nil, err
			}
		}
		bootDur := time.Since(start)
		if rep == sc.setups-1 {
			// Un-timed, on the instance that will be measured: the first
			// answer, the backend assertion and the oracle prefix.
			var buf bytes.Buffer
			if _, _, err := exchange(e.client, srv.base, &p.streams[0][0], &buf); err != nil {
				return nil, err
			}
			res.Metrics["topod.first_answer_ms"] = ms(time.Since(srv.started))
			res.Metrics["topod.boot_ready_ms"] = ms(srv.ready)
			infos, err := srv.indexes(e.client)
			if err != nil {
				return nil, err
			}
			if infos[0].Backend != p.wantBackend {
				return nil, fmt.Errorf("%s: /v1/indexes reports backend %q, the workload needs %q", p.name, infos[0].Backend, p.wantBackend)
			}
			res.Metrics["rtree.height"] = float64(infos[0].Height)
			if ver, err = verifyPrefix(e.client, srv.base, p); err != nil {
				return nil, err
			}
		}
		warmStart := time.Now()
		if err := runCount(e.client, srv.base, p.streams, p.warm); err != nil {
			return nil, err
		}
		raw := (bootDur + time.Since(warmStart)).Seconds()
		if rep < sc.setups-1 {
			// The last process's peak is read after the window.
			rss, err := srv.peakRSSMiB()
			if err != nil {
				return nil, err
			}
			peaks = append(peaks, rss)
		}
		sp, err := hostSpeed(100 * time.Millisecond)
		if err != nil {
			return nil, err
		}
		rawSetups = append(rawSetups, raw)
		res.SetupRuns = append(res.SetupRuns, raw*sp)
	}
	res.Metrics["setup_s"] = median(res.SetupRuns)
	res.Metrics["client.raw_setup_s"] = median(rawSetups)
	res.Attempted += ver.checked
	if ver.failed > 0 {
		res.fail(ver.failed, "oracle: %s", ver.firstError)
	}
	if ver.queries > 0 {
		res.Metrics["rtree.node_accesses_per_op"] = float64(ver.nodeAccesses) / float64(ver.queries)
	}
	if ver.joins > 0 {
		res.Metrics["rtree.join_node_accesses_per_op"] = float64(ver.joinNodeAccesses) / float64(ver.joins)
	}

	// The window: slices of a real phase against topod and a reference
	// phase against the null server, the same clients driving both.
	from := make([]int, len(p.streams))
	for c := range from {
		from[c] = p.warm
	}
	before, err := srv.scrape(e.client)
	if err != nil {
		return nil, err
	}
	cpu0, err := srv.cpuSeconds()
	if err != nil {
		return nil, err
	}
	realLen := p.slice * 4 / 5
	var real [][]sample // per slice
	var speed []float64 // per slice: the reference's rate over its nominal
	var clientCPU, busy float64
	for i := 0; i < int(sc.window/p.slice); i++ {
		self0, t0 := selfCPU(), time.Now()
		perClient, next, err := runClosedLoop(e.client, srv.base, p.streams, from, realLen)
		if err != nil {
			return nil, err
		}
		clientCPU += selfCPU() - self0
		busy += time.Since(t0).Seconds()
		from = next
		real = append(real, slices.Concat(perClient...))
		sp, err := hostSpeed(p.slice - realLen)
		if err != nil {
			return nil, err
		}
		speed = append(speed, sp)
	}
	cpu1, err := srv.cpuSeconds()
	if err != nil {
		return nil, err
	}
	after, err := srv.scrape(e.client)
	if err != nil {
		return nil, err
	}
	rss, err := srv.peakRSSMiB()
	if err != nil {
		return nil, err
	}
	samples := slices.Concat(real...)
	if !slices.ContainsFunc(samples, isRead) {
		return nil, fmt.Errorf("%s: no read was answered in the %s window", p.name, sc.window)
	}
	windowMetrics(res, real, speed, busy, before, after)
	// The peak is reached while packing the tree at boot, at one of two
	// levels a few MiB apart depending on where a collection cycle fell;
	// the mean over every boot of the run says how often each.
	peaks = append(peaks, rss)
	res.Slices["rss_mb"] = peaks
	res.Metrics["rss_mb"] = mean(peaks)
	res.Metrics["client.cpu_s"] = clientCPU
	res.Metrics["topod.cpu_s_per_kop"] = (cpu1 - cpu0) / float64(len(samples)) * 1000

	// Shutdown checks.
	live := 0
	if p.name == wMixedRW {
		if srv, live, err = crashCheck(e, p, srv, res, from[1]); err != nil {
			return nil, err
		}
	}
	err = srv.terminate()
	srv = nil
	if err != nil {
		return nil, err
	}
	if p.durable {
		nbytes, err := dirBytes(dir)
		if err != nil {
			return nil, err
		}
		res.Metrics["server.disk_bytes_total"] = float64(nbytes)
		if p.name == wMixedRW {
			res.Metrics["client.disk_bytes_per_object"] = float64(nbytes) / float64(live)
		}
	}
	res.Metrics["client.error_rate"] = float64(res.Failed) / float64(res.Attempted)
	return res, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// windowMetrics turns the window's samples, slice by slice, and the
// /metrics delta around it into metrics. Every timing and throughput of
// the window is the median of its per-slice values, so one checkpoint or
// one stall of the host cannot move it. The two gated ones are first
// divided by the slice's host speed — the rate the reference server
// reached right after the slice, over its nominal rate — so they read
// what this run would have measured on the nominal host; their raw
// values are reported as client.raw_*. busy is the seconds the real
// phases took together.
func windowMetrics(res *result, real [][]sample, speed []float64, busy float64, before, after map[string]float64) {
	m := res.Metrics
	perSlice := func(name string, f func(i int, slice []sample) float64) {
		var vals []float64
		for i, slice := range real {
			// A slice without a sample of the kind is left out: it would
			// read as 0.
			if v := f(i, slice); v > 0 {
				vals = append(vals, v)
			}
		}
		res.Slices[name] = vals
		m[name] = median(vals)
	}
	latency := func(name string, keep func(sample) bool, q float64) {
		perSlice(name, func(_ int, slice []sample) float64 { return percentile(latMS(slice, keep), q) })
	}
	samples := slices.Concat(real...)

	res.Attempted += len(samples)
	for _, s := range samples {
		if !s.ok {
			res.fail(1, "%s request answered without a 200 and a trailer", kindNames[s.kind])
		}
	}
	perSlice("client.host_speed", func(i int, _ []sample) float64 { return speed[i] })
	perSlice("ops_per_s", func(i int, slice []sample) float64 { return phaseRate(slice, isRead) / speed[i] })
	perSlice("lat_p50_ms", func(i int, slice []sample) float64 { return percentile(latMS(slice, isRead), 0.50) * speed[i] })
	perSlice("client.raw_ops_per_s", func(_ int, slice []sample) float64 { return phaseRate(slice, isRead) })
	latency("client.raw_lat_p50_ms", isRead, 0.50)
	latency("client.lat_p90_ms", isRead, 0.90)

	reads := latMS(samples, isRead)
	res.Samples["reads"] = len(reads)
	m["client.lat_max_ms"] = percentile(reads, 1)
	if res.Workload != wJoin {
		// The tails are pooled over the window: a slice is too short to
		// have ten samples beyond its own p99.
		m["client.lat_p99_ms"] = percentile(reads, 0.99)
		m["client.lat_p999_ms"] = percentile(reads, 0.999)
		m["client.query_p50_ms"] = percentile(latMS(samples, func(s sample) bool { return s.ok && s.kind == kQuery }), 0.5)
	}
	if res.Workload == wTopo {
		for kind, name := range map[uint8]string{kConj: "client.conj_p50_ms", kKNN: "client.knn_p50_ms"} {
			lat := latMS(samples, func(s sample) bool { return s.ok && s.kind == kind })
			res.Samples[name] = len(lat)
			m[name] = percentile(lat, 0.5)
		}
	}

	var lines, nbytes float64
	for _, s := range samples {
		if isRead(s) {
			lines += float64(s.lines)
			nbytes += float64(s.nbytes)
		}
	}
	m["server.lines_per_op"] = lines / float64(len(reads))
	m["server.bytes_out_per_op"] = nbytes / float64(len(reads))

	// Counter deltas, normalised by the server's own count of the
	// requests it answered between the two scrapes.
	delta := func(name string) float64 { return after[name] - before[name] }
	served := func(endpoint string) float64 {
		return delta(`topod_requests_total{endpoint="` + endpoint + `",code="200"}`)
	}
	readOps := served("query") + served("knn") + served("join")
	allOps := readOps + served("insert") + served("delete")
	m["server.rejected_per_kop"] = delta("topod_rejected_total") / allOps * 1000
	m["query.candidates_per_op"] = delta("topod_candidates_total") / readOps
	switch res.Workload {
	case wTopo:
		m["query.plan_reorders_per_kop"] = delta("topod_plan_reorder_total") / readOps * 1000
		m["query.plan_shortcircuits_per_kop"] = delta("topod_plan_shortcircuit_total") / readOps * 1000
	case wJoin:
		m["query.join_pairs_per_op"] = delta("topod_join_pairs_total") / served("join")
	case wHot, wMixedRW:
		hits, misses := delta("topod_cache_hits_total"), delta("topod_cache_misses_total")
		m["server.cache_hit_ratio"] = hits / (hits + misses)
		m["server.cache_evictions_per_kop"] = delta("topod_cache_evictions_total") / readOps * 1000
	}
	if res.Workload == wMixedRW {
		perSlice("client.write_ops_per_s", func(_ int, slice []sample) float64 { return phaseRate(slice, isWrite) })
		latency("client.write_lat_p50_ms", isWrite, 0.50)
		latency("client.write_lat_p90_ms", isWrite, 0.90)
		writes := latMS(samples, isWrite)
		res.Samples["writes"] = len(writes)
		m["server.write_stall_max_ms"] = percentile(writes, 1)
		m["server.checkpoints"] = delta("topod_checkpoints_total")
		m["wal.fsyncs_per_write"] = delta(`topod_wal_group_commits_total{index="main"}`) / delta(`topod_wal_group_records_total{index="main"}`)
		m["wal.commit_busy_frac"] = delta(`topod_wal_commit_seconds_total{index="main"}`) / busy
	}
}

// crashCheck is the durability check of mixed_rw: SIGKILL topod while
// the writer is still sending, restart it on the same directory, and
// compare the stored ids with the acknowledged history. applied is how
// many writer operations were acknowledged so far. It returns the
// restarted process and how many objects it stores.
//
// SIGKILL keeps the operating system's page cache, so this proves that
// acknowledged writes survive a process crash, not a power failure.
func crashCheck(e *env, p *plan, srv *topod, res *result, applied int) (*topod, int, error) {
	writer := p.streams[1]
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var buf bytes.Buffer
		for ; applied < len(writer); applied++ {
			if s, _, err := exchange(e.client, srv.base, &writer[applied], &buf); err != nil || !s.ok {
				return // the kill landed: this operation's fate is unknown
			}
		}
	}()
	// Let the lone writer cross one checkpoint before the kill, so the
	// snapshot recovery starts from was taken with no reader running.
	// One taken beside a reader can be torn: a reader's release frees
	// retired pages in the working file (rtree/snapshot.go reclaimLocked)
	// without the lock under which durable.checkpoint copies that file,
	// and recovery then refuses the snapshot's checksums — two restarts in
	// five when this check killed with the reader's last checkpoint on
	// disk. README "Findings" has the details; the wait goes when that
	// is fixed.
	const checkpoints = "topod_checkpoints_total"
	base, err := srv.scrape(e.client)
	deadline := time.Now().Add(30 * time.Second)
	for now := base; err == nil && now[checkpoints] == base[checkpoints]; now, err = srv.scrape(e.client) {
		if time.Now().After(deadline) {
			err = fmt.Errorf("none in 30s")
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err != nil {
		srv.kill()
		wg.Wait()
		return nil, 0, fmt.Errorf("waiting for a checkpoint before the crash: %w", err)
	}
	time.Sleep(100 * time.Millisecond)
	killed := time.Now()
	srv.kill()
	wg.Wait()
	if applied >= len(writer) {
		return nil, 0, fmt.Errorf("writer stream exhausted before the crash")
	}
	srv, err = startServer(e.client, e.topodBin, p.rebootArgv)
	if err != nil {
		return nil, 0, fmt.Errorf("restart after SIGKILL: %w", err)
	}
	res.TopodArgv = append(res.TopodArgv, srv.argv)
	res.Metrics["client.recover_s"] = time.Since(killed).Seconds()

	want := make(map[uint64]bool, len(p.items)+writerBacklog)
	for _, it := range p.items {
		want[it.OID] = true
	}
	for _, rq := range writer[:applied] {
		if rq.kind == kInsert {
			want[rq.oid] = true
		} else {
			delete(want, rq.oid)
		}
	}
	unknown := writer[applied].oid
	got, err := liveOIDs(e.client, srv.base)
	if err != nil {
		return srv, 0, err
	}
	res.Attempted += applied
	for _, oid := range got {
		if !want[oid] && oid != unknown {
			res.fail(1, "after SIGKILL and restart: object %d is stored but was never acknowledged, or its delete was", oid)
		}
		delete(want, oid)
	}
	delete(want, unknown)
	for oid := range want {
		res.fail(1, "after SIGKILL and restart: acknowledged object %d is missing", oid)
	}
	return srv, len(got), nil
}

// scratchDir names the directory under the output directory that holds
// one workload's data, and removes whatever an aborted run left there.
func scratchDir(e *env, workload string) (string, error) {
	dir := filepath.Join(e.outDir, "data-"+workload)
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(e.outDir, 0o755)
}
