package server

import (
	"bytes"
	"fmt"
	"io"
	"maps"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mbrtopo/internal/query"
	"mbrtopo/internal/rtree"
)

// The registry: metric families rendered, in registration order, as
// Prometheus text exposition. A family is a name, a help line, a type
// and a function that emits its samples when scraped. counter, gauge
// and histogram are the values the server updates on its hot paths
// (atomics, so an observation never waits for a scrape); vec tells the
// values of one family apart by labels; collect registers a family
// whose numbers live elsewhere — a subsystem adds one beside the code
// that owns them:
//
//	s.metrics.collect("topod_x_total", "What x counts.", "counter", func(emit emitFunc) {
//		emit(x.Load(), "index", name)
//	})
//
// A family that emits no sample prints nothing, header included.
type registry struct {
	families []family
}

type family struct {
	name, help, typ string
	write           func(sampleFunc)
}

// sampleFunc writes one sample line: the family name plus suffix (only
// histograms have one), the labels as name, value pairs, and the value,
// an integer or a float64. emitFunc is the same for a plain family.
type (
	sampleFunc func(suffix string, v any, labels ...string)
	emitFunc   func(v any, labels ...string)
)

func (r *registry) add(name, help, typ string, write func(sampleFunc)) {
	r.families = append(r.families, family{name, help, typ, write})
}

func (r *registry) collect(name, help, typ string, fn func(emit emitFunc)) {
	r.add(name, help, typ, func(sample sampleFunc) {
		fn(func(v any, labels ...string) { sample("", v, labels...) })
	})
}

func (r *registry) counter(name, help string, c *counter) {
	r.collect(name, help, "counter", func(emit emitFunc) { emit(c.Load()) })
}

func (r *registry) gauge(name, help string, g *gauge) {
	r.collect(name, help, "gauge", func(emit emitFunc) { emit(g.Load()) })
}

func (r *registry) histogram(name, help string, h *histogram) {
	r.add(name, help, "histogram", func(sample sampleFunc) { h.write(sample) })
}

// WriteTo renders every family; its HELP and TYPE lines go out with its
// first sample. Output is deterministic (label values sorted) so scrapes
// diff cleanly.
func (r *registry) WriteTo(w io.Writer) (int64, error) {
	var buf bytes.Buffer
	for _, f := range r.families {
		header := false
		f.write(func(suffix string, v any, labels ...string) {
			if !header {
				header = true
				fmt.Fprintf(&buf, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ)
			}
			buf.WriteString(f.name)
			buf.WriteString(suffix)
			for i := 0; i+1 < len(labels); i += 2 {
				sep := ","
				if i == 0 {
					sep = "{"
				}
				fmt.Fprintf(&buf, "%s%s=%q", sep, labels[i], labels[i+1])
			}
			if len(labels) > 0 {
				buf.WriteByte('}')
			}
			fmt.Fprintf(&buf, " %v\n", v)
		})
	}
	return buf.WriteTo(w)
}

type (
	counter struct{ atomic.Uint64 }
	gauge   struct{ atomic.Int64 }
)

// latencyBuckets are the histogram upper bounds, in seconds.
var latencyBuckets = [...]float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5,
}

// histogram is a fixed-bucket latency histogram.
type histogram struct {
	counts   [len(latencyBuckets) + 1]atomic.Uint64 // last = +Inf
	sumNanos atomic.Int64
}

func (h *histogram) observe(d time.Duration) {
	h.counts[sort.SearchFloat64s(latencyBuckets[:], d.Seconds())].Add(1)
	h.sumNanos.Add(int64(d))
}

// write is the one histogram renderer: cumulative buckets, sum, and a
// count that is the +Inf bucket by construction.
func (h *histogram) write(sample sampleFunc, labels ...string) {
	var cum uint64
	for i := range h.counts {
		le := "+Inf"
		if i < len(latencyBuckets) {
			le = strconv.FormatFloat(latencyBuckets[i], 'g', -1, 64)
		}
		cum += h.counts[i].Load()
		sample("_bucket", cum, append(slices.Clip(labels), "le", le)...)
	}
	sample("_sum", time.Duration(h.sumNanos.Load()).Seconds(), labels...)
	sample("_count", cum, labels...)
}

// vec holds the values of one family told apart by label values. with
// resolves (creating it on first use) the child for one combination;
// callers on a hot path resolve once and keep the pointer.
type vec[T any] struct {
	labels   []string
	mu       sync.Mutex
	children map[string]*T // by label values joined with NUL
}

func (v *vec[T]) with(values ...string) *T {
	key := strings.Join(values, "\x00")
	v.mu.Lock()
	defer v.mu.Unlock()
	c, ok := v.children[key]
	if !ok {
		if v.children == nil {
			v.children = make(map[string]*T)
		}
		c = new(T)
		v.children[key] = c
	}
	return c
}

// each visits the children in label-value order.
func (v *vec[T]) each(fn func(child *T, labels ...string)) {
	v.mu.Lock()
	defer v.mu.Unlock()
	for _, key := range slices.Sorted(maps.Keys(v.children)) {
		var labels []string
		for i, value := range strings.Split(key, "\x00") {
			labels = append(labels, v.labels[i], value)
		}
		fn(v.children[key], labels...)
	}
}

// Metrics is the server's registry and the values it updates itself.
// Besides the usual RED metrics (request counts, latency histograms,
// in-flight gauge), it folds every request's TraversalStats and
// query.Stats into cumulative counters: node/page reads, filter
// candidates, refinements actually performed — the paper's Figures
// 10–12 cost metrics as live counters. What each value means is its
// help line in newMetrics.
type Metrics struct {
	registry

	requests       vec[counter]   // by endpoint, code
	requestLatency vec[histogram] // by endpoint

	inFlight      gauge
	rejected      counter
	disconnects   counter
	streamFlushes counter
	cacheOversize counter

	nodeAccesses     counter
	candidates       counter
	planShortCircuit counter

	// Joins run orders of magnitude longer than window queries, so they
	// get their own wall-time distribution.
	joinPairs        counter
	joinNodeAccesses counter
	joinInFlight     gauge
	joinLatency      histogram

	checksumFailures counter
	walRecords       counter
	walReplays       counter
	checkpoints      counter

	watchStreams  gauge
	watchRejected counter
	watchLatency  histogram // commit to notification

	// The primary's side of replication; a follower's is collected from
	// its repl.Follower (follower.go).
	replStreams          gauge
	replRecordsShipped   counter
	replSnapshotsShipped counter
	replBytesShipped     counter
}

// newMetrics registers the process-wide families; the per-index ones
// follow in Server.New, each registered by the subsystem that owns its
// numbers. Registration order is exposition order.
func newMetrics(cache *resultCache) *Metrics {
	m := &Metrics{}
	m.requests.labels = []string{"endpoint", "code"}
	m.collect("topod_requests_total", "Requests served, by endpoint and status code.", "counter", func(emit emitFunc) {
		m.requests.each(func(c *counter, labels ...string) { emit(c.Load(), labels...) })
	})
	m.requestLatency.labels = []string{"endpoint"}
	m.add("topod_request_duration_seconds", "Request latency.", "histogram", func(sample sampleFunc) {
		m.requestLatency.each(func(h *histogram, labels ...string) { h.write(sample, labels...) })
	})
	m.counter("topod_stream_flushes_total", "Writes made by /v1/query and /v1/join NDJSON streams; over their topod_requests_total it is the flushes one response costs.", &m.streamFlushes)
	m.gauge("topod_in_flight_requests", "Requests currently holding an admission slot.", &m.inFlight)
	m.counter("topod_rejected_total", "Requests shed by admission control (429).", &m.rejected)
	m.counter("topod_disconnects_total", "Query streams abandoned before completion.", &m.disconnects)
	m.counter("topod_node_accesses_total", "Tree pages read, folded from per-request TraversalStats (the paper's disk accesses).", &m.nodeAccesses)
	m.counter("topod_candidates_total", "Filter-step candidate MBRs retrieved (the paper's hits per search).", &m.candidates)
	m.counter("topod_plan_shortcircuit_total", "Conjunctions answered empty from the relation composition table (zero page reads).", &m.planShortCircuit)
	if cache != nil {
		cache.register(m)
	}
	m.counter("topod_join_pairs_total", "Result pairs streamed by /v1/join.", &m.joinPairs)
	m.counter("topod_join_node_accesses_total", "Tree pages read by synchronized join traversals.", &m.joinNodeAccesses)
	m.gauge("topod_join_in_flight", "Join requests currently executing.", &m.joinInFlight)
	m.histogram("topod_join_duration_seconds", "Wall time of /v1/join requests.", &m.joinLatency)
	m.gauge("topod_watch_streams", "Watch streams currently open.", &m.watchStreams)
	m.counter("topod_watch_rejected_total", "Watch requests shed because the watch slot pool was full (429).", &m.watchRejected)
	m.histogram("topod_watch_notify_duration_seconds", "Commit-to-notification latency of watch evaluation batches.", &m.watchLatency)
	m.counter("topod_checksum_failures_total", "Checkpoint images that failed their CRC32-C check at boot.", &m.checksumFailures)
	m.counter("topod_wal_records_total", "Mutations appended to the write-ahead logs by this process.", &m.walRecords)
	m.counter("topod_wal_replays_total", "WAL records replayed during crash recovery.", &m.walReplays)
	m.counter("topod_checkpoints_total", "Snapshot checkpoints taken (WAL rotations).", &m.checkpoints)
	m.gauge("topod_repl_streams", "Replication streams (/v1/replicate) open now.", &m.replStreams)
	m.counter("topod_repl_records_shipped_total", "WAL records shipped to followers.", &m.replRecordsShipped)
	m.counter("topod_repl_snapshots_shipped_total", "Bootstrap snapshots shipped to followers.", &m.replSnapshotsShipped)
	m.counter("topod_repl_bytes_shipped_total", "Bytes written to replication streams.", &m.replBytesShipped)
	return m
}

// bit is a boolean as a gauge value.
func bit(b bool) int {
	if b {
		return 1
	}
	return 0
}

// FoldQuery accumulates one request's engine statistics. Stats.
// NodeAccesses is the per-traversal page-read count (TraversalStats),
// so summing it here keeps /metrics equal to the sum of per-request
// traversal accounting no matter how many requests ran concurrently.
func (m *Metrics) FoldQuery(s query.Stats) {
	m.nodeAccesses.Add(s.NodeAccesses)
	m.candidates.Add(uint64(s.Candidates))
	if s.ShortCircuited {
		m.planShortCircuit.Add(1)
	}
}

// FoldJoin accumulates one join request's cost: pairs actually written
// to the stream, the synchronized traversal's page reads (also folded
// into the shared node-access total, so topod_node_accesses_total
// remains the sum over all traversals), and the join's wall time.
func (m *Metrics) FoldJoin(pairs int, s query.Stats, d time.Duration) {
	m.joinPairs.Add(uint64(pairs))
	m.joinNodeAccesses.Add(s.NodeAccesses)
	m.FoldQuery(s)
	m.joinLatency.observe(d)
}

// FoldTraversal accumulates a bare traversal (kNN requests).
func (m *Metrics) FoldTraversal(ts rtree.TraversalStats) {
	m.nodeAccesses.Add(ts.NodeAccesses)
}

// JoinPairsTotal returns the folded join result-pair counter.
func (m *Metrics) JoinPairsTotal() uint64 { return m.joinPairs.Load() }

// JoinNodeAccessesTotal returns the folded join page-read counter.
func (m *Metrics) JoinNodeAccessesTotal() uint64 { return m.joinNodeAccesses.Load() }

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
