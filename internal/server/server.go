// Package server exposes the query engine as an HTTP service: the
// paper's 4-step retrieval strategy (package query) behind a wire API,
// with NDJSON-streamed results, semaphore-based admission control, and
// the per-traversal cost accounting surfaced as live Prometheus
// counters — the Figures 10–12 numbers measured on production traffic
// instead of a benchmark harness.
//
// Endpoints:
//
//	POST /v1/query    relation/relation-set window query, streamed as
//	                  NDJSON (one match per line, trailing stats line)
//	POST /v1/join     topological spatial join of two indexes (or one
//	                  with itself), streamed as NDJSON pair lines with
//	                  a trailing stats line
//	GET  /v1/knn      k nearest rectangles to a point
//	POST /v1/insert   store a rectangle under an object id
//	POST /v1/delete   remove a rectangle/id entry
//	POST /v1/bulk     stream rectangles as NDJSON; the batch is applied
//	                  atomically (STR-packed when the tree is empty) and
//	                  logged as one WAL group commit
//	GET  /v1/indexes  the loaded indexes (kind, size, height, bounds)
//	POST /v1/watch    continuous query: a long-lived NDJSON stream of
//	                  enter/exit events for a region + relation set, one
//	                  per inserted or deleted rectangle the set admits
//	GET  /v1/replicate
//	                  a durable index as a replication stream: its
//	                  checkpoint image, then the live WAL tail
//	POST /v1/promote  turn a read replica into a writable primary
//	GET  /metrics     Prometheus text exposition
//	GET  /healthz     process liveness (always 200 while serving)
//	GET  /readyz      readiness: 200 only when every index recovered
//	                  and is healthy, 503 otherwise
//
// All /v1 endpoints pass through admission control: at most
// Config.MaxInFlight requests execute concurrently; excess requests
// are rejected immediately with 429 and a Retry-After header, so a
// saturated server sheds load instead of queueing unboundedly.
// /metrics bypasses admission so observability survives saturation.
// /v1/watch draws from its own Config.MaxWatch slot pool instead of
// the shared semaphore: long-lived streams never starve queries.
package server

import (
	"fmt"
	"net/http"
	"regexp"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mbrtopo/internal/geom"
	"mbrtopo/internal/index"
	"mbrtopo/internal/query"
	"mbrtopo/internal/rtree"
	"mbrtopo/internal/wal"
	"mbrtopo/internal/watch"
)

// Config tunes the service. The zero value is usable: defaults are
// filled in by New.
type Config struct {
	// MaxInFlight bounds concurrently executing /v1 requests
	// (default 64).
	MaxInFlight int
	// RetryAfter is the back-off advertised on 429 responses
	// (default 1s, rounded up to whole seconds on the wire).
	RetryAfter time.Duration
	// DefaultTimeout applies to requests that specify no deadline of
	// their own; 0 means no default deadline.
	DefaultTimeout time.Duration
	// MaxTimeout caps client-requested deadlines (default 60s).
	MaxTimeout time.Duration
	// MaxWatch bounds concurrently open /v1/watch streams (default
	// 256). Watch streams are long-lived, so they are admitted from
	// this dedicated pool rather than the MaxInFlight semaphore.
	MaxWatch int
	// ReplHeartbeat is how often an idle /v1/replicate stream emits a
	// heartbeat frame (default 500ms). Followers drop a stream that
	// stays silent for several heartbeats, so keep this well below the
	// follower's stall timeout.
	ReplHeartbeat time.Duration
	// CacheSize is the capacity (entries) of the /v1/query result
	// cache, shared across indexes. A commit removes only the entries
	// whose answers its records can change (the Table 1 rule of
	// cache.go). 0 disables caching (the zero Config serves uncached);
	// topod passes its -cache-size flag here.
	CacheSize int
}

// IndexSpec describes one named index to serve.
type IndexSpec struct {
	// Name addresses the index in requests (empty requests resolve to
	// the first index added) and prefixes its files under Dir, so it is
	// restricted to 1–64 letters, digits, '_' and '-'.
	Name string
	// Kind selects the access method.
	Kind index.Kind
	// PageSize is the page size in bytes (0 → index.PaperPageSize).
	PageSize int
	// Bulk loads the initial items through InsertBatch instead of
	// one-by-one inserts: on an empty R-/R*-tree the batch is
	// Sort-Tile-Recursive packed, which is the fast path for serving a
	// large data file.
	Bulk bool
	// Dir, when non-empty, makes the index durable: its state lives in
	// this directory as a checksummed MBRFLAT1 checkpoint image plus a
	// mutation WAL, recovered on AddIndex (in which case items is
	// ignored) and checkpointed as the log grows.
	Dir string
	// Deprecated: flat is the only checkpoint format; remove with the next bench/ change.
	Flat bool
	// Fsync is the WAL fsync policy for durable indexes.
	Fsync wal.SyncPolicy
	// CheckpointEvery checkpoints after this many logged mutations
	// (0 → DefaultCheckpointEvery; negative → manual only).
	CheckpointEvery int
	// Follower registers the index as a replication target: no local
	// state is built or recovered — the checkpoint image and the WAL
	// arrive through Server.Follow's stream. Requires Dir.
	Follower bool
}

// DefaultCheckpointEvery is the automatic checkpoint cadence (logged
// mutations between checkpoint images) when the spec leaves it zero.
const DefaultCheckpointEvery = 1024

// readView is what an instance serves: its tree and the query processor
// over it. It is set once at boot and replaced only by a follower's
// bootstrap, which swaps in the tree of a newer image; the whole struct
// is replaced atomically so handlers never see one half of the pair
// without the other.
type readView struct {
	idx  index.Index
	proc *query.Processor
}

func newReadView(idx index.Index) *readView {
	return &readView{idx: idx, proc: &query.Processor{Idx: idx}}
}

// Instance is one served index with its query processor.
type Instance struct {
	Name string
	Kind index.Kind

	// Recovered reports that AddIndex resumed existing durable state
	// instead of building from items; Replayed counts the WAL records
	// applied on top of the snapshot.
	Recovered bool
	Replayed  int

	// view is the tree the instance serves and mutates (see readView):
	// nil when recovery failed, and in a follower shell before its first
	// bootstrap. backend labels how the instance came up — "paged"
	// (fresh build), "recovered" (checkpoint image + WAL replay), or
	// "flat" (the image of a quiet checkpoint, nothing replayed) — and
	// is fixed before AddIndex returns.
	view    atomic.Pointer[readView]
	backend string

	dur        *durable
	unhealthy  atomic.Bool
	mu         sync.Mutex // guards failReason
	failReason string

	// repl is the loop following this index's primary: set by
	// Server.Follow on an index registered with IndexSpec.Follower, nil
	// everywhere else.
	repl *replica

	// watch is the instance's continuous-query subscription table,
	// which AddIndex gives every registered instance.
	// wmu is the mutation lock of an instance without durable state of
	// its own (see mutLock).
	watch *watch.Table
	wmu   sync.Mutex

	// cache is the server's result cache (nil when disabled), which
	// mutate and a follower's bootstrap invalidate.
	cache *resultCache

	// gen counts applied mutations: bumped by mutate and by a follower's
	// bootstrap; never for checkpoints, which keep the logical contents
	// unchanged.
	gen atomic.Uint64
}

// bumpGen advances the instance's mutation generation.
func (inst *Instance) bumpGen() { inst.gen.Add(1) }

// Generation returns the instance's mutation generation (a cheap "has
// anything changed" probe for tests and the bench harness's traced
// pass).
func (inst *Instance) Generation() uint64 { return inst.gen.Load() }

// Backend reports which boot path produced the instance's tree:
// "paged", "recovered", or "flat".
func (inst *Instance) Backend() string {
	if inst.backend == "" {
		return "paged"
	}
	return inst.backend
}

// ReadIndex returns the tree the instance serves. Nil when the instance
// has none (failed recovery, follower shell before bootstrap).
func (inst *Instance) ReadIndex() index.Index {
	if v := inst.view.Load(); v != nil {
		return v.idx
	}
	return nil
}

// ReadProc returns the query processor over ReadIndex (nil when the
// instance has no tree).
func (inst *Instance) ReadProc() *query.Processor {
	if v := inst.view.Load(); v != nil {
		return v.proc
	}
	return nil
}

// Healthy reports whether the index may serve traffic. An index whose
// recovery failed — or whose log or checkpoint failed while serving —
// answers 503 instead of wrong answers.
func (inst *Instance) Healthy() bool { return !inst.unhealthy.Load() }

// FailReason returns why the instance is unhealthy ("" when healthy).
func (inst *Instance) FailReason() string {
	inst.mu.Lock()
	defer inst.mu.Unlock()
	return inst.failReason
}

// MarkUnhealthy takes the instance out of service (first reason wins).
// The reason is stored before the flag flips, so whoever sees the
// instance unhealthy finds out why.
func (inst *Instance) MarkUnhealthy(reason string) {
	inst.mu.Lock()
	defer inst.mu.Unlock()
	if !inst.unhealthy.Load() {
		inst.failReason = reason
		inst.unhealthy.Store(true)
	}
}

// Durable reports whether the instance persists to a data directory.
func (inst *Instance) Durable() bool { return inst.dur != nil }

// Insert stores one rectangle, logging it to the WAL (before the
// caller acknowledges) when the index is durable.
func (inst *Instance) Insert(r geom.Rect, oid uint64) error {
	return inst.mutate([]wal.Record{{Op: wal.OpInsert, OID: oid, Rect: r}}, nil)
}

// Delete removes one rectangle/id entry, logging it to the WAL when
// the index is durable.
func (inst *Instance) Delete(r geom.Rect, oid uint64) error {
	return inst.mutate([]wal.Record{{Op: wal.OpDelete, OID: oid, Rect: r}}, nil)
}

// InsertBatch stores a batch of rectangles as one atomic index
// mutation — STR-packed when an R-/R*-tree is empty — and,
// on a durable index, one contiguous WAL run with a single
// group-committed flush.
func (inst *Instance) InsertBatch(recs []rtree.Record) error {
	batch := make([]wal.Record, len(recs))
	for i, r := range recs {
		batch[i] = wal.Record{Op: wal.OpInsert, OID: r.OID, Rect: r.Rect}
	}
	return inst.mutate(batch, nil)
}

// mutLock returns the lock that orders the instance's mutations, and
// so their publication to the watch table, among themselves: the
// durable lock, which also orders them against checkpoints and
// replication snapshots, or wmu on an instance with no durable state
// of its own.
func (inst *Instance) mutLock() *sync.Mutex {
	if inst.dur != nil {
		return &inst.dur.mu
	}
	return &inst.wmu
}

// mutate is the one way a served index changes. recs is a single
// record, or a batch of inserts that readers see whole or not at all.
// In order, under the mutation lock:
//
//  1. pre — a follower's replication-position check; nil elsewhere
//  2. the tree changes (applyLocked)
//  3. the records are published to the watch table, once
//  4. the generation moves, and the result cache drops the answers the
//     records can change
//  5. on a durable instance the records are reserved as one contiguous
//     WAL run and counted, which may run a checkpoint
//
// Then, with the lock released so that concurrent writers share one
// group commit, it waits for the log; a log or checkpoint failure
// leaves the instance unhealthy (durable.settle). A mutation the tree
// refuses is not published, counted or logged.
func (inst *Instance) mutate(recs []wal.Record, pre func() error) error {
	if len(recs) == 0 {
		return nil
	}
	mu := inst.mutLock()
	mu.Lock()
	var err error
	if pre != nil {
		err = pre()
	}
	if err == nil {
		err = inst.applyLocked(recs)
	}
	if err != nil {
		mu.Unlock()
		return err
	}
	inst.watch.Publish(recs...)
	inst.bumpGen()
	if inst.cache != nil {
		inst.cache.invalidate(inst.Name, recs)
	}
	d := inst.dur
	if d == nil {
		mu.Unlock()
		return nil
	}
	ticket := d.log.Reserve(recs...)
	cpErr := d.afterReserveLocked(inst, len(recs))
	mu.Unlock()
	return d.settle(inst, ticket, cpErr)
}

// applyLocked makes recs visible to readers. Caller holds the mutation
// lock.
func (inst *Instance) applyLocked(recs []wal.Record) error {
	idx := inst.ReadIndex()
	if idx == nil {
		return fmt.Errorf("server: index %q has no tree to mutate (%s)", inst.Name, inst.FailReason())
	}
	if len(recs) == 1 {
		return applyRecord(idx, recs[0])
	}
	batch, err := insertBatchOf(recs)
	if err != nil {
		return err
	}
	return idx.InsertBatch(batch)
}

// applyRecord applies one logged mutation to a tree.
func applyRecord(idx index.Index, rec wal.Record) error {
	switch rec.Op {
	case wal.OpInsert:
		return idx.Insert(rec.Rect, rec.OID)
	case wal.OpDelete:
		return idx.Delete(rec.Rect, rec.OID)
	}
	return fmt.Errorf("server: unknown mutation op %v", rec.Op)
}

// insertBatchOf converts a multi-record mutation for the tree's atomic
// InsertBatch, which is what makes it all-or-nothing: a batch may hold
// inserts only.
func insertBatchOf(recs []wal.Record) ([]rtree.Record, error) {
	batch := make([]rtree.Record, len(recs))
	for i, r := range recs {
		if r.Op != wal.OpInsert {
			return nil, fmt.Errorf("server: record %d of a batch is a %s; batches hold inserts only", i, r.Op)
		}
		batch[i] = rtree.Record{Rect: r.Rect, OID: r.OID}
	}
	return batch, nil
}

// Server routes the wire API onto a set of named indexes.
type Server struct {
	cfg     Config
	metrics *Metrics
	adm     *admission
	// cache memoises /v1/query answers (nil when Config.CacheSize is
	// 0); each instance invalidates its own entries.
	cache *resultCache

	mu          sync.RWMutex
	instances   map[string]*Instance
	defaultName string

	// watchSlots is the dedicated admission pool for /v1/watch streams.
	watchSlots chan struct{}

	// follow is non-nil when the server runs as a read replica
	// (Server.Follow); see follower.go.
	follow *followState
}

// New creates a server with no indexes loaded.
func New(cfg Config) *Server {
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = 64
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = time.Second
	}
	if cfg.MaxTimeout <= 0 {
		cfg.MaxTimeout = 60 * time.Second
	}
	if cfg.MaxWatch <= 0 {
		cfg.MaxWatch = 256
	}
	if cfg.ReplHeartbeat <= 0 {
		cfg.ReplHeartbeat = 500 * time.Millisecond
	}
	cache := newResultCache(cfg.CacheSize)
	m := newMetrics(cache)
	s := &Server{
		cfg:        cfg,
		metrics:    m,
		adm:        newAdmission(cfg.MaxInFlight, cfg.RetryAfter, m),
		cache:      cache,
		instances:  make(map[string]*Instance),
		watchSlots: make(chan struct{}, cfg.MaxWatch),
	}
	// The per-index families, in exposition order.
	s.registerReplMetrics()
	s.registerIndexMetrics()
	s.registerWALMetrics()
	s.registerWatchMetrics()
	return s
}

// serve makes idx the tree the instance serves and mutates.
func (inst *Instance) serve(idx index.Index) {
	inst.view.Store(newReadView(idx))
}

// newTree creates an empty tree of the spec's kind: nodes decoded in
// memory, accesses charged at the spec's page size.
func newTree(spec IndexSpec) (index.Index, error) {
	return index.NewWithPageSize(spec.Kind, spec.PageSize)
}

// loadItems builds the initial tree from items, through InsertBatch
// (STR packing on an empty tree) when bulk is set.
func loadItems(idx index.Index, items []index.Item, bulk bool) error {
	if bulk {
		return index.LoadBulk(idx, items)
	}
	return index.Load(idx, items)
}

// registerIndexMetrics adds the per-index health and backend gauges.
func (s *Server) registerIndexMetrics() {
	s.metrics.collect("topod_index_healthy", "Whether the index is serving (1) or degraded to 503s (0).", "gauge", func(emit emitFunc) {
		for _, inst := range s.listInstances() {
			emit(bit(inst.Healthy()), "index", inst.Name)
		}
	})
	s.metrics.collect("topod_index_backend", "Boot backend of the index: flat (adopted from the checkpoint image, nothing replayed), paged (fresh build), or recovered (checkpoint image + WAL replay).", "gauge", func(emit emitFunc) {
		for _, inst := range s.listInstances() {
			emit(1, "index", inst.Name, "backend", inst.Backend())
		}
	})
}

// Metrics exposes the server's metric registry (the bench/ harness and
// tests fold expectations against it).
func (s *Server) Metrics() *Metrics { return s.metrics }

// validIndexName is what AddIndex accepts: the name becomes part of file
// names under the data directory, so it holds no '.' or path separator.
var validIndexName = regexp.MustCompile(`^[A-Za-z0-9_-]{1,64}$`)

// AddIndex builds an index per spec, loads items into it, and serves
// it under spec.Name. The first index added becomes the default. With
// spec.Dir set the index is durable: existing state in the directory
// is recovered (items is then ignored) and a recovery failure yields a
// registered-but-unhealthy instance answering 503 rather than an
// error — the process serves its other indexes instead of dying.
func (s *Server) AddIndex(spec IndexSpec, items []index.Item) (*Instance, error) {
	if !validIndexName.MatchString(spec.Name) {
		return nil, fmt.Errorf("server: index name %q: want 1 to 64 letters, digits, '_' or '-'", spec.Name)
	}
	if spec.PageSize <= 0 {
		spec.PageSize = index.PaperPageSize
	}
	if spec.CheckpointEvery == 0 {
		spec.CheckpointEvery = DefaultCheckpointEvery
	}
	if spec.Follower && spec.Dir == "" {
		return nil, fmt.Errorf("server: follower index %q needs a data directory", spec.Name)
	}
	if spec.Dir != "" {
		if err := legacySnapshot(spec.Dir, spec.Name); err != nil {
			return nil, err
		}
	}
	inst, err := s.buildInstance(spec, items)
	if err != nil {
		return nil, err
	}
	inst.watch = s.newWatchTable()
	inst.cache = s.cache
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.instances[inst.Name]; dup {
		_ = inst.Close()
		return nil, fmt.Errorf("server: duplicate index %q", inst.Name)
	}
	s.instances[inst.Name] = inst
	if s.defaultName == "" {
		s.defaultName = inst.Name
	}
	return inst, nil
}

// buildInstance constructs one unregistered instance per spec.
func (s *Server) buildInstance(spec IndexSpec, items []index.Item) (*Instance, error) {
	if spec.Dir != "" {
		return s.openDurable(spec, items)
	}
	idx, err := newTree(spec)
	if err == nil {
		err = loadItems(idx, items, spec.Bulk)
	}
	if err != nil {
		return nil, fmt.Errorf("server: index %q: %w", spec.Name, err)
	}
	inst := &Instance{Name: spec.Name, Kind: spec.Kind}
	inst.serve(idx)
	return inst, nil
}

// Close checkpoints and releases every durable index. The server must
// not be serving requests any more (call after http.Server.Shutdown).
// A replica's follower loops are stopped first: one left streaming
// would find its index's log closed, reconnect in bootstrap mode and
// rewrite the image and open a fresh WAL under a closed server.
func (s *Server) Close() error {
	if s.follow != nil {
		s.follow.stop()
	}
	var firstErr error
	for _, inst := range s.listInstances() {
		inst.watch.Close("closed")
		if err := inst.Close(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("server: closing index %q: %w", inst.Name, err)
		}
	}
	return firstErr
}

// instance resolves a request's index name ("" → default).
func (s *Server) instance(name string) (*Instance, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if name == "" {
		name = s.defaultName
	}
	inst, ok := s.instances[name]
	if !ok {
		return nil, fmt.Errorf("server: no index %q", name)
	}
	return inst, nil
}

// listInstances snapshots the instances sorted by name.
func (s *Server) listInstances() []*Instance {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]*Instance, 0, len(s.instances))
	for _, inst := range s.instances {
		out = append(out, inst)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Handler returns the routed service: instrumentation wraps every
// endpoint, admission control wraps the /v1 endpoints only.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	v1 := func(endpoint string, h http.HandlerFunc) http.Handler {
		return s.metrics.instrument(endpoint, s.adm.wrap(h))
	}
	mux.Handle("POST /v1/query", v1("query", s.handleQuery))
	mux.Handle("POST /v1/join", v1("join", s.handleJoin))
	mux.Handle("GET /v1/knn", v1("knn", s.handleKNN))
	mux.Handle("POST /v1/insert", v1("insert", s.handleInsert))
	mux.Handle("POST /v1/delete", v1("delete", s.handleDelete))
	mux.Handle("POST /v1/bulk", v1("bulk", s.handleBulk))
	mux.Handle("GET /v1/indexes", v1("indexes", s.handleIndexes))
	// Watch streams are long-lived, so they are admitted from their own
	// bounded slot pool (inside handleWatch) instead of the shared
	// semaphore — a full house of subscribers cannot starve queries.
	mux.Handle("POST /v1/watch", s.metrics.instrument("watch", http.HandlerFunc(s.handleWatch)))
	// Replication streams are long-lived like watch streams, and
	// promotion must work even on a saturated replica, so both bypass
	// the admission semaphore.
	mux.Handle("GET /v1/replicate", s.metrics.instrument("replicate", http.HandlerFunc(s.handleReplicate)))
	mux.Handle("POST /v1/promote", s.metrics.instrument("promote", http.HandlerFunc(s.handlePromote)))
	// Observability and health bypass admission control so probes and
	// scrapes survive saturation.
	mux.Handle("GET /metrics", s.metrics.instrument("metrics", http.HandlerFunc(s.handleMetrics)))
	mux.Handle("GET /healthz", s.metrics.instrument("healthz", http.HandlerFunc(s.handleHealthz)))
	mux.Handle("GET /readyz", s.metrics.instrument("readyz", http.HandlerFunc(s.handleReadyz)))
	return mux
}

// queryTimeout applies the request deadline policy: the client's
// timeout (capped at MaxTimeout), else DefaultTimeout, else none.
func (s *Server) queryTimeout(requestedMS int64) time.Duration {
	switch {
	case requestedMS > 0:
		d := time.Duration(requestedMS) * time.Millisecond
		if d > s.cfg.MaxTimeout {
			d = s.cfg.MaxTimeout
		}
		return d
	default:
		return s.cfg.DefaultTimeout
	}
}
