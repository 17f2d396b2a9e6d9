package server

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"mbrtopo/internal/query"
	"mbrtopo/internal/rtree"
)

// Metrics is a dependency-free metric registry rendered in Prometheus
// text exposition format. Besides the usual RED metrics (request
// counts, latency histograms, in-flight gauge), it folds every
// request's TraversalStats and query.Stats into cumulative counters:
// node/page reads, filter candidates, refinements actually performed —
// the paper's Figures 10–12 cost metrics as live counters.
type Metrics struct {
	inFlight    atomic.Int64
	rejected    atomic.Uint64
	disconnects atomic.Uint64

	// streamFlushes counts the writes lineWriters made; over
	// topod_requests_total{endpoint="query"|"join"} it is the flushes
	// one response costs. cacheOversize counts answers that streamed
	// but outgrew maxCachedBytes and were not stored.
	streamFlushes atomic.Uint64
	cacheOversize atomic.Uint64

	nodeAccesses    atomic.Uint64
	candidates      atomic.Uint64
	refinementTests atomic.Uint64
	directAccepts   atomic.Uint64
	falseHits       atomic.Uint64

	// Planner counters: conjunctions answered empty straight from the
	// composition table, and conjunctions where the histogram estimate
	// overrode the static cost-group term order.
	planShortCircuit atomic.Uint64
	planReorder      atomic.Uint64

	// Join counters: result pairs streamed, pages read by synchronized
	// traversals, joins currently executing, and a wall-time histogram
	// (joins run orders of magnitude longer than window queries, so
	// they get their own distribution).
	joinPairs        atomic.Uint64
	joinNodeAccesses atomic.Uint64
	joinInFlight     atomic.Int64
	joinLatency      histogram

	// Durability counters: pages failing their checksum, WAL records
	// appended by this process, WAL records replayed during recovery,
	// and checkpoints taken.
	checksumFailures atomic.Uint64
	walRecords       atomic.Uint64
	walReplays       atomic.Uint64
	checkpoints      atomic.Uint64

	// Watch counters: streams currently open, streams shed because the
	// dedicated slot pool was full, and the commit-to-notification
	// latency distribution of the subscription notifiers.
	watchStreams  atomic.Int64
	watchRejected atomic.Uint64
	watchLatency  histogram

	// Primary-side replication counters: /v1/replicate streams open
	// now, and records/snapshots/bytes shipped over them.
	replStreams          atomic.Int64
	replRecordsShipped   atomic.Uint64
	replSnapshotsShipped atomic.Uint64
	replBytesShipped     atomic.Uint64

	mu        sync.Mutex
	endpoints map[string]*endpointMetrics

	// poolStats lets /metrics surface buffer-pool hit/miss counters of
	// the served indexes without the registry importing the server.
	poolStats func() []PoolStat
	// healthStats surfaces per-index health the same way.
	healthStats func() []HealthStat
	// backendStats surfaces which backend each index booted on (flat
	// snapshot, fresh paged build, or paged recovery) the same way.
	backendStats func() []BackendStat
	// walStats surfaces per-index WAL group-commit counters the same
	// way.
	walStats func() []WALStat
	// watchStats surfaces per-index subscription-table counters the
	// same way.
	watchStats func() []WatchStat
	// replStats surfaces follower-side replication state the same way;
	// nil on a node that never called Server.Follow.
	replStats func() []ReplStat
	// shardStats surfaces router fan-out counters of the sharded
	// indexes the same way.
	shardStats func() []ShardStat
	// cacheStats surfaces the result cache's hit/miss/eviction counters
	// the same way; nil when caching is disabled.
	cacheStats func() (hits, misses, evictions uint64)
}

// PoolStat is one index's buffer-pool counters for /metrics.
type PoolStat struct {
	Index        string
	Hits, Misses uint64
}

// HealthStat is one index's health gauge for /metrics.
type HealthStat struct {
	Index   string
	Healthy bool
}

// BackendStat is one index's boot-backend label for /metrics.
type BackendStat struct {
	Index   string
	Backend string
}

// WALStat is one durable index's group-commit counters for /metrics.
type WALStat struct {
	Index      string
	Commits    uint64
	Records    uint64
	MaxBatch   uint64
	CommitTime time.Duration
}

// WatchStat is one index's subscription-table counters for /metrics.
type WatchStat struct {
	Index         string
	Subscriptions int
	Evaluated     uint64
	Skipped       uint64
	Pruned        uint64
	Events        uint64
	Dropped       uint64
	Batches       uint64
}

// endpointMetrics is one endpoint's request counters and latency
// histogram.
type endpointMetrics struct {
	mu      sync.Mutex
	codes   map[int]uint64
	latency histogram
}

// numLatencyBuckets is len(latencyBuckets); spelled as a constant so
// the histogram's counter array needs no allocation.
const numLatencyBuckets = 15

// latencyBuckets are the histogram upper bounds, in seconds.
var latencyBuckets = [numLatencyBuckets]float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5,
}

// histogram is a fixed-bucket latency histogram. Counters are atomic
// so observations never serialise behind the render path.
type histogram struct {
	counts   [numLatencyBuckets + 1]atomic.Uint64 // last = +Inf
	count    atomic.Uint64
	sumNanos atomic.Int64
}

func (h *histogram) observe(d time.Duration) {
	secs := d.Seconds()
	i := sort.SearchFloat64s(latencyBuckets[:], secs)
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sumNanos.Add(int64(d))
}

// NewMetrics creates an empty registry.
func NewMetrics() *Metrics {
	return &Metrics{endpoints: make(map[string]*endpointMetrics)}
}

func (m *Metrics) endpoint(name string) *endpointMetrics {
	m.mu.Lock()
	defer m.mu.Unlock()
	em, ok := m.endpoints[name]
	if !ok {
		em = &endpointMetrics{codes: make(map[int]uint64)}
		m.endpoints[name] = em
	}
	return em
}

// FoldQuery accumulates one request's engine statistics. Stats.
// NodeAccesses is the per-traversal page-read count (TraversalStats),
// so summing it here keeps /metrics equal to the sum of per-request
// traversal accounting no matter how many requests ran concurrently.
func (m *Metrics) FoldQuery(s query.Stats) {
	m.nodeAccesses.Add(s.NodeAccesses)
	m.candidates.Add(uint64(s.Candidates))
	m.refinementTests.Add(uint64(s.RefinementTests))
	m.directAccepts.Add(uint64(s.DirectAccepts))
	m.falseHits.Add(uint64(s.FalseHits))
	if s.ShortCircuited {
		m.planShortCircuit.Add(1)
	}
	if s.Reordered {
		m.planReorder.Add(1)
	}
}

// FoldJoin accumulates one join request's cost: pairs actually written
// to the stream, the synchronized traversal's page reads (also folded
// into the shared node-access total, so topod_node_accesses_total
// remains the sum over all traversals), and the join's wall time.
func (m *Metrics) FoldJoin(pairs int, s query.Stats, d time.Duration) {
	m.joinPairs.Add(uint64(pairs))
	m.joinNodeAccesses.Add(s.NodeAccesses)
	m.nodeAccesses.Add(s.NodeAccesses)
	m.candidates.Add(uint64(s.Candidates))
	m.refinementTests.Add(uint64(s.RefinementTests))
	m.directAccepts.Add(uint64(s.DirectAccepts))
	m.falseHits.Add(uint64(s.FalseHits))
	m.joinLatency.observe(d)
}

// JoinPairsTotal returns the folded join result-pair counter.
func (m *Metrics) JoinPairsTotal() uint64 { return m.joinPairs.Load() }

// JoinNodeAccessesTotal returns the folded join page-read counter.
func (m *Metrics) JoinNodeAccessesTotal() uint64 { return m.joinNodeAccesses.Load() }

// FoldTraversal accumulates a bare traversal (kNN requests).
func (m *Metrics) FoldTraversal(ts rtree.TraversalStats) {
	m.nodeAccesses.Add(ts.NodeAccesses)
}

// Disconnects counts streams abandoned by the client (or cut by a
// deadline) before completion.
func (m *Metrics) Disconnects() uint64 { return m.disconnects.Load() }

// NodeAccessesTotal returns the folded page-read counter.
func (m *Metrics) NodeAccessesTotal() uint64 { return m.nodeAccesses.Load() }

// CandidatesTotal returns the folded filter-candidate counter.
func (m *Metrics) CandidatesTotal() uint64 { return m.candidates.Load() }

// ChecksumFailuresTotal returns the corrupt-page counter.
func (m *Metrics) ChecksumFailuresTotal() uint64 { return m.checksumFailures.Load() }

// WALRecordsTotal returns the appended WAL record counter.
func (m *Metrics) WALRecordsTotal() uint64 { return m.walRecords.Load() }

// WALReplaysTotal returns the recovered-record counter.
func (m *Metrics) WALReplaysTotal() uint64 { return m.walReplays.Load() }

// CheckpointsTotal returns the checkpoint counter.
func (m *Metrics) CheckpointsTotal() uint64 { return m.checkpoints.Load() }

// statusWriter records the response code and keeps http.Flusher
// reachable through the wrapping.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// instrument wraps next with request counting and latency observation
// under the endpoint label.
func (m *Metrics) instrument(endpoint string, next http.Handler) http.Handler {
	em := m.endpoint(endpoint)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		next.ServeHTTP(sw, r)
		elapsed := time.Since(start)
		code := sw.code
		if code == 0 {
			code = http.StatusOK
		}
		em.mu.Lock()
		em.codes[code]++
		em.mu.Unlock()
		em.latency.observe(elapsed)
	})
}

// WriteTo renders the registry in Prometheus text exposition format.
// Output is deterministic (labels sorted) so scrapes diff cleanly.
func (m *Metrics) WriteTo(w io.Writer) (int64, error) {
	cw := &countingWriter{w: w}
	m.mu.Lock()
	names := make([]string, 0, len(m.endpoints))
	for name := range m.endpoints {
		names = append(names, name)
	}
	sort.Strings(names)
	eps := make(map[string]*endpointMetrics, len(names))
	for _, name := range names {
		eps[name] = m.endpoints[name]
	}
	m.mu.Unlock()

	fmt.Fprintf(cw, "# HELP topod_requests_total Requests served, by endpoint and status code.\n")
	fmt.Fprintf(cw, "# TYPE topod_requests_total counter\n")
	for _, name := range names {
		em := eps[name]
		em.mu.Lock()
		codes := make([]int, 0, len(em.codes))
		for c := range em.codes {
			codes = append(codes, c)
		}
		sort.Ints(codes)
		for _, c := range codes {
			fmt.Fprintf(cw, "topod_requests_total{endpoint=%q,code=%q} %d\n", name, strconv.Itoa(c), em.codes[c])
		}
		em.mu.Unlock()
	}

	fmt.Fprintf(cw, "# HELP topod_request_duration_seconds Request latency.\n")
	fmt.Fprintf(cw, "# TYPE topod_request_duration_seconds histogram\n")
	for _, name := range names {
		h := &eps[name].latency
		var cum uint64
		for i, le := range latencyBuckets {
			cum += h.counts[i].Load()
			fmt.Fprintf(cw, "topod_request_duration_seconds_bucket{endpoint=%q,le=%q} %d\n",
				name, strconv.FormatFloat(le, 'g', -1, 64), cum)
		}
		cum += h.counts[len(latencyBuckets)].Load()
		fmt.Fprintf(cw, "topod_request_duration_seconds_bucket{endpoint=%q,le=\"+Inf\"} %d\n", name, cum)
		fmt.Fprintf(cw, "topod_request_duration_seconds_sum{endpoint=%q} %g\n",
			name, time.Duration(h.sumNanos.Load()).Seconds())
		fmt.Fprintf(cw, "topod_request_duration_seconds_count{endpoint=%q} %d\n", name, h.count.Load())
	}

	gauge := func(name, help string, v int64) {
		fmt.Fprintf(cw, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}
	counter := func(name, help string, v uint64) {
		fmt.Fprintf(cw, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	counter("topod_stream_flushes_total", "Writes made by /v1/query and /v1/join NDJSON streams; over their topod_requests_total it is the flushes one response costs.", m.streamFlushes.Load())
	gauge("topod_in_flight_requests", "Requests currently holding an admission slot.", m.inFlight.Load())
	counter("topod_rejected_total", "Requests shed by admission control (429).", m.rejected.Load())
	counter("topod_disconnects_total", "Query streams abandoned before completion.", m.disconnects.Load())
	counter("topod_node_accesses_total", "Tree pages read, folded from per-request TraversalStats (the paper's disk accesses).", m.nodeAccesses.Load())
	counter("topod_candidates_total", "Filter-step candidate MBRs retrieved (the paper's hits per search).", m.candidates.Load())
	counter("topod_refinement_tests_total", "Candidates that needed an exact geometry test.", m.refinementTests.Load())
	counter("topod_direct_accepts_total", "Candidates accepted from MBR configuration alone (Figure 9).", m.directAccepts.Load())
	counter("topod_false_hits_total", "Candidates rejected by refinement.", m.falseHits.Load())
	counter("topod_plan_shortcircuit_total", "Conjunctions answered empty from the relation composition table (zero page reads).", m.planShortCircuit.Load())
	counter("topod_plan_reorder_total", "Conjunctions where histogram selectivity overrode the static cost-group term order.", m.planReorder.Load())
	if m.cacheStats != nil {
		hits, misses, evictions := m.cacheStats()
		counter("topod_cache_hits_total", "Queries answered from the result cache (zero page reads).", hits)
		counter("topod_cache_misses_total", "Query cache lookups that fell through to a traversal.", misses)
		counter("topod_cache_evictions_total", "Result-cache entries displaced from the LRU cold end.", evictions)
		counter("topod_cache_oversize_total", "Query answers streamed but not stored because they outgrew the 1 MiB entry bound.", m.cacheOversize.Load())
	}
	counter("topod_join_pairs_total", "Result pairs streamed by /v1/join.", m.joinPairs.Load())
	counter("topod_join_node_accesses_total", "Tree pages read by synchronized join traversals.", m.joinNodeAccesses.Load())
	gauge("topod_join_in_flight", "Join requests currently executing.", m.joinInFlight.Load())
	fmt.Fprintf(cw, "# HELP topod_join_duration_seconds Wall time of /v1/join requests.\n")
	fmt.Fprintf(cw, "# TYPE topod_join_duration_seconds histogram\n")
	{
		h := &m.joinLatency
		var cum uint64
		for i, le := range latencyBuckets {
			cum += h.counts[i].Load()
			fmt.Fprintf(cw, "topod_join_duration_seconds_bucket{le=%q} %d\n",
				strconv.FormatFloat(le, 'g', -1, 64), cum)
		}
		cum += h.counts[len(latencyBuckets)].Load()
		fmt.Fprintf(cw, "topod_join_duration_seconds_bucket{le=\"+Inf\"} %d\n", cum)
		fmt.Fprintf(cw, "topod_join_duration_seconds_sum %g\n", time.Duration(h.sumNanos.Load()).Seconds())
		fmt.Fprintf(cw, "topod_join_duration_seconds_count %d\n", h.count.Load())
	}
	gauge("topod_watch_streams", "Watch streams currently open.", m.watchStreams.Load())
	counter("topod_watch_rejected_total", "Watch requests shed because the watch slot pool was full (429).", m.watchRejected.Load())
	fmt.Fprintf(cw, "# HELP topod_watch_notify_duration_seconds Commit-to-notification latency of watch evaluation batches.\n")
	fmt.Fprintf(cw, "# TYPE topod_watch_notify_duration_seconds histogram\n")
	{
		h := &m.watchLatency
		var cum uint64
		for i, le := range latencyBuckets {
			cum += h.counts[i].Load()
			fmt.Fprintf(cw, "topod_watch_notify_duration_seconds_bucket{le=%q} %d\n",
				strconv.FormatFloat(le, 'g', -1, 64), cum)
		}
		cum += h.counts[len(latencyBuckets)].Load()
		fmt.Fprintf(cw, "topod_watch_notify_duration_seconds_bucket{le=\"+Inf\"} %d\n", cum)
		fmt.Fprintf(cw, "topod_watch_notify_duration_seconds_sum %g\n", time.Duration(h.sumNanos.Load()).Seconds())
		fmt.Fprintf(cw, "topod_watch_notify_duration_seconds_count %d\n", h.count.Load())
	}
	counter("topod_checksum_failures_total", "Checkpoint images or pages that failed their CRC32-C check (boot or serving).", m.checksumFailures.Load())
	counter("topod_wal_records_total", "Mutations appended to the write-ahead logs by this process.", m.walRecords.Load())
	counter("topod_wal_replays_total", "WAL records replayed during crash recovery.", m.walReplays.Load())
	counter("topod_checkpoints_total", "Snapshot checkpoints taken (WAL rotations).", m.checkpoints.Load())
	gauge("topod_repl_streams", "Replication streams (/v1/replicate) open now.", m.replStreams.Load())
	counter("topod_repl_records_shipped_total", "WAL records shipped to followers.", m.replRecordsShipped.Load())
	counter("topod_repl_snapshots_shipped_total", "Bootstrap snapshots shipped to followers.", m.replSnapshotsShipped.Load())
	counter("topod_repl_bytes_shipped_total", "Bytes written to replication streams.", m.replBytesShipped.Load())

	if m.replStats != nil {
		stats := m.replStats()
		if len(stats) > 0 {
			fmt.Fprintf(cw, "# HELP topod_repl_connected Whether the follower index has a live stream to its primary.\n")
			fmt.Fprintf(cw, "# TYPE topod_repl_connected gauge\n")
			for _, rs := range stats {
				v := 0
				if rs.Connected {
					v = 1
				}
				fmt.Fprintf(cw, "topod_repl_connected{index=%q} %d\n", rs.Index, v)
			}
			fmt.Fprintf(cw, "# HELP topod_repl_lag_records Records the follower index is behind its primary (lower bound across rotations).\n")
			fmt.Fprintf(cw, "# TYPE topod_repl_lag_records gauge\n")
			for _, rs := range stats {
				fmt.Fprintf(cw, "topod_repl_lag_records{index=%q} %d\n", rs.Index, rs.LagRecords)
			}
			fmt.Fprintf(cw, "# HELP topod_repl_lag_seconds Seconds since the primary was last heard from (-1 = never).\n")
			fmt.Fprintf(cw, "# TYPE topod_repl_lag_seconds gauge\n")
			for _, rs := range stats {
				fmt.Fprintf(cw, "topod_repl_lag_seconds{index=%q} %g\n", rs.Index, rs.LagSeconds)
			}
			fmt.Fprintf(cw, "# HELP topod_repl_applied_seq Last replication position applied, as sequence within the applied generation.\n")
			fmt.Fprintf(cw, "# TYPE topod_repl_applied_seq gauge\n")
			for _, rs := range stats {
				fmt.Fprintf(cw, "topod_repl_applied_seq{index=%q,generation=\"%d\"} %d\n", rs.Index, rs.AppliedGen, rs.AppliedSeq)
			}
			fmt.Fprintf(cw, "# HELP topod_repl_records_applied_total Replicated records applied by this follower.\n")
			fmt.Fprintf(cw, "# TYPE topod_repl_records_applied_total counter\n")
			for _, rs := range stats {
				fmt.Fprintf(cw, "topod_repl_records_applied_total{index=%q} %d\n", rs.Index, rs.Records)
			}
			fmt.Fprintf(cw, "# HELP topod_repl_reconnects_total Stream reconnect attempts by this follower.\n")
			fmt.Fprintf(cw, "# TYPE topod_repl_reconnects_total counter\n")
			for _, rs := range stats {
				fmt.Fprintf(cw, "topod_repl_reconnects_total{index=%q} %d\n", rs.Index, rs.Reconnects)
			}
			fmt.Fprintf(cw, "# HELP topod_repl_snapshots_total Bootstrap snapshots this follower loaded.\n")
			fmt.Fprintf(cw, "# TYPE topod_repl_snapshots_total counter\n")
			for _, rs := range stats {
				fmt.Fprintf(cw, "topod_repl_snapshots_total{index=%q} %d\n", rs.Index, rs.Snapshots)
			}
			fmt.Fprintf(cw, "# HELP topod_repl_bytes_received_total Replication stream bytes received by this follower.\n")
			fmt.Fprintf(cw, "# TYPE topod_repl_bytes_received_total counter\n")
			for _, rs := range stats {
				fmt.Fprintf(cw, "topod_repl_bytes_received_total{index=%q} %d\n", rs.Index, rs.Bytes)
			}
		}
	}

	if m.healthStats != nil {
		fmt.Fprintf(cw, "# HELP topod_index_healthy Whether the index is serving (1) or degraded to 503s (0).\n")
		fmt.Fprintf(cw, "# TYPE topod_index_healthy gauge\n")
		for _, hs := range m.healthStats() {
			v := 0
			if hs.Healthy {
				v = 1
			}
			fmt.Fprintf(cw, "topod_index_healthy{index=%q} %d\n", hs.Index, v)
		}
	}

	if m.backendStats != nil {
		fmt.Fprintf(cw, "# HELP topod_index_backend Boot backend of the index: flat (served from the checkpoint image), paged (fresh build), or recovered (checkpoint image + WAL replay).\n")
		fmt.Fprintf(cw, "# TYPE topod_index_backend gauge\n")
		for _, bs := range m.backendStats() {
			fmt.Fprintf(cw, "topod_index_backend{index=%q,backend=%q} 1\n", bs.Index, bs.Backend)
		}
	}

	if m.walStats != nil {
		stats := m.walStats()
		if len(stats) > 0 {
			fmt.Fprintf(cw, "# HELP topod_wal_group_commits_total Durable WAL batch flushes (one write + one policy fsync each), by index.\n")
			fmt.Fprintf(cw, "# TYPE topod_wal_group_commits_total counter\n")
			for _, ws := range stats {
				fmt.Fprintf(cw, "topod_wal_group_commits_total{index=%q} %d\n", ws.Index, ws.Commits)
			}
			fmt.Fprintf(cw, "# HELP topod_wal_group_records_total Records across those flushes; records/commits is the achieved batching.\n")
			fmt.Fprintf(cw, "# TYPE topod_wal_group_records_total counter\n")
			for _, ws := range stats {
				fmt.Fprintf(cw, "topod_wal_group_records_total{index=%q} %d\n", ws.Index, ws.Records)
			}
			fmt.Fprintf(cw, "# HELP topod_wal_group_max_batch_records Largest single flush, in records.\n")
			fmt.Fprintf(cw, "# TYPE topod_wal_group_max_batch_records gauge\n")
			for _, ws := range stats {
				fmt.Fprintf(cw, "topod_wal_group_max_batch_records{index=%q} %d\n", ws.Index, ws.MaxBatch)
			}
			fmt.Fprintf(cw, "# HELP topod_wal_commit_seconds_total Cumulative wall time inside WAL write+fsync, by index.\n")
			fmt.Fprintf(cw, "# TYPE topod_wal_commit_seconds_total counter\n")
			for _, ws := range stats {
				fmt.Fprintf(cw, "topod_wal_commit_seconds_total{index=%q} %g\n", ws.Index, ws.CommitTime.Seconds())
			}
		}
	}

	if m.watchStats != nil {
		stats := m.watchStats()
		if len(stats) > 0 {
			fmt.Fprintf(cw, "# HELP topod_watch_subscriptions Live watch subscriptions, by index.\n")
			fmt.Fprintf(cw, "# TYPE topod_watch_subscriptions gauge\n")
			for _, ws := range stats {
				fmt.Fprintf(cw, "topod_watch_subscriptions{index=%q} %d\n", ws.Index, ws.Subscriptions)
			}
			fmt.Fprintf(cw, "# HELP topod_watch_evaluated_total Subscription evaluations actually performed by the notifier.\n")
			fmt.Fprintf(cw, "# TYPE topod_watch_evaluated_total counter\n")
			for _, ws := range stats {
				fmt.Fprintf(cw, "topod_watch_evaluated_total{index=%q} %d\n", ws.Index, ws.Evaluated)
			}
			fmt.Fprintf(cw, "# HELP topod_watch_skipped_total Subscription evaluations skipped by the conceptual-neighbourhood filter.\n")
			fmt.Fprintf(cw, "# TYPE topod_watch_skipped_total counter\n")
			for _, ws := range stats {
				fmt.Fprintf(cw, "topod_watch_skipped_total{index=%q} %d\n", ws.Index, ws.Skipped)
			}
			fmt.Fprintf(cw, "# HELP topod_watch_pruned_total Subscriptions never considered because the subscription R-tree pruned them.\n")
			fmt.Fprintf(cw, "# TYPE topod_watch_pruned_total counter\n")
			for _, ws := range stats {
				fmt.Fprintf(cw, "topod_watch_pruned_total{index=%q} %d\n", ws.Index, ws.Pruned)
			}
			fmt.Fprintf(cw, "# HELP topod_watch_events_total Events delivered to watch subscribers.\n")
			fmt.Fprintf(cw, "# TYPE topod_watch_events_total counter\n")
			for _, ws := range stats {
				fmt.Fprintf(cw, "topod_watch_events_total{index=%q} %d\n", ws.Index, ws.Events)
			}
			fmt.Fprintf(cw, "# HELP topod_watch_dropped_total Events lost terminating lagging subscribers.\n")
			fmt.Fprintf(cw, "# TYPE topod_watch_dropped_total counter\n")
			for _, ws := range stats {
				fmt.Fprintf(cw, "topod_watch_dropped_total{index=%q} %d\n", ws.Index, ws.Dropped)
			}
			fmt.Fprintf(cw, "# HELP topod_watch_batches_total Commit batches evaluated by the watch notifier.\n")
			fmt.Fprintf(cw, "# TYPE topod_watch_batches_total counter\n")
			for _, ws := range stats {
				fmt.Fprintf(cw, "topod_watch_batches_total{index=%q} %d\n", ws.Index, ws.Batches)
			}
		}
	}

	if m.shardStats != nil {
		stats := m.shardStats()
		if len(stats) > 0 {
			fmt.Fprintf(cw, "# HELP topod_shard_tiles STR tiles behind the sharded index.\n")
			fmt.Fprintf(cw, "# TYPE topod_shard_tiles gauge\n")
			for _, ss := range stats {
				fmt.Fprintf(cw, "topod_shard_tiles{index=%q} %d\n", ss.Index, ss.Tiles)
			}
			fmt.Fprintf(cw, "# HELP topod_shard_tile_searches_total Tiles the router actually fanned a read out to.\n")
			fmt.Fprintf(cw, "# TYPE topod_shard_tile_searches_total counter\n")
			for _, ss := range stats {
				fmt.Fprintf(cw, "topod_shard_tile_searches_total{index=%q} %d\n", ss.Index, ss.Searched)
			}
			fmt.Fprintf(cw, "# HELP topod_shard_tile_prunes_total Tiles eliminated before traversal by the MBR feasibility test on tile bounds.\n")
			fmt.Fprintf(cw, "# TYPE topod_shard_tile_prunes_total counter\n")
			for _, ss := range stats {
				fmt.Fprintf(cw, "topod_shard_tile_prunes_total{index=%q} %d\n", ss.Index, ss.Pruned)
			}
		}
	}

	if m.poolStats != nil {
		stats := m.poolStats()
		fmt.Fprintf(cw, "# HELP topod_buffer_pool_hits_total Buffer-pool read hits, by index.\n")
		fmt.Fprintf(cw, "# TYPE topod_buffer_pool_hits_total counter\n")
		for _, ps := range stats {
			fmt.Fprintf(cw, "topod_buffer_pool_hits_total{index=%q} %d\n", ps.Index, ps.Hits)
		}
		fmt.Fprintf(cw, "# HELP topod_buffer_pool_misses_total Buffer-pool read misses, by index.\n")
		fmt.Fprintf(cw, "# TYPE topod_buffer_pool_misses_total counter\n")
		for _, ps := range stats {
			fmt.Fprintf(cw, "topod_buffer_pool_misses_total{index=%q} %d\n", ps.Index, ps.Misses)
		}
	}
	return cw.n, cw.err
}

// countingWriter tracks bytes written and the first error, so WriteTo
// satisfies io.WriterTo without error handling at every Fprintf.
type countingWriter struct {
	w   io.Writer
	n   int64
	err error
}

func (c *countingWriter) Write(b []byte) (int, error) {
	if c.err != nil {
		return 0, c.err
	}
	n, err := c.w.Write(b)
	c.n += int64(n)
	c.err = err
	return n, err
}
