package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mbrtopo/internal/retry"
	"mbrtopo/internal/rtree"
	"mbrtopo/internal/wal"
)

// FollowConfig tunes a read replica (Server.Follow).
type FollowConfig struct {
	// Primary is the base URL of the primary, e.g. "http://10.0.0.1:7007".
	Primary string
	// MaxLagRecords is the /readyz gate: the replica reports not-ready
	// while it is more than this many records behind the primary
	// (default 10000).
	MaxLagRecords uint64
	// MaxLagWall is the /readyz staleness gate: the replica reports
	// not-ready when it has heard nothing from the primary — no record,
	// rotate, or heartbeat — for this long (default 5s).
	MaxLagWall time.Duration
	// Client performs the replication requests; it must not set a
	// Timeout, the stream being long-lived (default
	// http.DefaultClient; tests inject fault-wrapped transports).
	Client *http.Client
	// Backoff paces reconnection attempts (zero value → retry defaults).
	Backoff retry.Policy
	// StallTimeout drops a stream that delivers no byte for this long
	// (default 3s; keep it a few multiples of the primary's heartbeat).
	StallTimeout time.Duration
	// Seed makes reconnect jitter deterministic in tests (0 → fixed
	// default seed).
	Seed int64
}

// followState is the replica half of a server: the lifetime of the
// follower loops (each follower index holds its own, Instance.repl), a
// promotion latch, and the config that names the primary in 403
// responses.
type followState struct {
	cfg    FollowConfig
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu       sync.Mutex // serialises Promote
	promoted atomic.Bool
}

// stop cancels the follower loops and waits them out. Promote and
// Server.Close both call it; a second call finds nothing running.
func (fs *followState) stop() {
	fs.cancel()
	fs.wg.Wait()
}

// Follow starts replication: every index registered with
// IndexSpec.Follower gets a follower loop streaming from
// cfg.Primary's /v1/replicate. While following, the server answers
// read endpoints from replicated state, 403s mutations (naming the
// primary), and gates /readyz on replication lag; Promote flips it to
// an ordinary writable primary.
func (s *Server) Follow(cfg FollowConfig) error {
	if s.follow != nil {
		return fmt.Errorf("server: already following %s", s.follow.cfg.Primary)
	}
	if cfg.Primary == "" {
		return fmt.Errorf("server: follow needs a primary URL")
	}
	if cfg.MaxLagRecords == 0 {
		cfg.MaxLagRecords = 10000
	}
	if cfg.MaxLagWall <= 0 {
		cfg.MaxLagWall = 5 * time.Second
	}
	if cfg.Client == nil {
		cfg.Client = http.DefaultClient
	}
	if cfg.StallTimeout <= 0 {
		cfg.StallTimeout = 3 * time.Second
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	fs := &followState{cfg: cfg}
	var replicas []*replica
	for _, inst := range s.listInstances() {
		if inst.dur != nil && inst.dur.spec.Follower {
			replicas = append(replicas, &replica{inst: inst, cfg: &fs.cfg, rng: rand.New(rand.NewSource(cfg.Seed))})
		}
	}
	if len(replicas) == 0 {
		return fmt.Errorf("server: no follower indexes registered")
	}
	ctx, cancel := context.WithCancel(context.Background())
	fs.cancel = cancel
	for _, r := range replicas {
		r.inst.repl = r
		fs.wg.Add(1)
		go func() {
			defer fs.wg.Done()
			r.run(ctx)
		}()
	}
	s.follow = fs
	return nil
}

// isFollower reports whether the server currently rejects mutations
// because a primary owns its state.
func (s *Server) isFollower() bool {
	return s.follow != nil && !s.follow.promoted.Load()
}

// rejectFollowerWrite answers 403 naming the primary that does accept
// the request. Callers check isFollower first.
func (s *Server) rejectFollowerWrite(w http.ResponseWriter, msg string) {
	writeJSON(w, http.StatusForbidden, ErrorResponse{Error: msg, Primary: s.follow.cfg.Primary})
}

// Promote flips a replica to an ordinary writable primary: stop the
// follower loops, wait them out, checkpoint every replicated index (so
// the node owns a clean snapshot + fresh WAL generation), then drop
// the mutation gate. Idempotent; refuses while any follower index has
// never bootstrapped — promoting an empty shell would serve an empty
// index as if it were the data.
func (s *Server) Promote() error {
	fs := s.follow
	if fs == nil {
		return fmt.Errorf("server: not a follower")
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.promoted.Load() {
		return nil
	}
	instances := s.listInstances()
	for _, inst := range instances {
		if inst.repl == nil {
			continue
		}
		if _, _, ok := inst.dur.position(); !ok {
			return fmt.Errorf("server: index %q has not bootstrapped from %s yet", inst.Name, fs.cfg.Primary)
		}
	}
	fs.stop()
	var firstErr error
	for _, inst := range instances {
		if inst.repl == nil || !inst.Healthy() {
			continue // a degraded index stays 503; promotion must not resurrect it
		}
		if err := inst.Checkpoint(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("server: checkpointing index %q on promote: %w", inst.Name, err)
		}
	}
	if firstErr != nil {
		return firstErr
	}
	fs.promoted.Store(true)
	return nil
}

// handlePromote serves POST /v1/promote.
func (s *Server) handlePromote(w http.ResponseWriter, r *http.Request) {
	if s.follow == nil {
		writeJSONError(w, http.StatusConflict, "not a follower; nothing to promote")
		return
	}
	if err := s.Promote(); err != nil {
		writeJSONError(w, http.StatusConflict, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, PromoteResponse{Promoted: true, Primary: s.follow.cfg.Primary})
}

// lagSeconds is the time since the replica last heard from its
// primary — record, rotate or heartbeat — and -1 when it never has.
func lagSeconds(st replStatus) float64 {
	if st.lastContact.IsZero() {
		return -1
	}
	return time.Since(st.lastContact).Seconds()
}

// registerReplMetrics adds the follower-side families: one sample per
// follower index, none on a node that never called Follow.
func (s *Server) registerReplMetrics() {
	family := func(name, help, typ string, sample func(st replStatus, emit emitFunc)) {
		s.metrics.collect(name, help, typ, func(emit emitFunc) {
			for _, inst := range s.listInstances() {
				if inst.repl != nil {
					sample(inst.repl.status(), func(v any, labels ...string) {
						emit(v, append([]string{"index", inst.Name}, labels...)...)
					})
				}
			}
		})
	}
	family("topod_repl_connected", "Whether the follower index has a live stream to its primary.", "gauge",
		func(st replStatus, emit emitFunc) { emit(bit(st.connected)) })
	family("topod_repl_lag_records", "Records the follower index is behind its primary (lower bound across rotations).", "gauge",
		func(st replStatus, emit emitFunc) { emit(st.lagRecords) })
	family("topod_repl_lag_seconds", "Seconds since the primary was last heard from (-1 = never).", "gauge",
		func(st replStatus, emit emitFunc) { emit(lagSeconds(st)) })
	family("topod_repl_applied_seq", "Last replication position applied, as sequence within the applied generation.", "gauge",
		func(st replStatus, emit emitFunc) {
			emit(st.applied.seq, "generation", strconv.FormatUint(st.applied.gen, 10))
		})
	family("topod_repl_records_applied_total", "Replicated records applied by this follower.", "counter",
		func(st replStatus, emit emitFunc) { emit(st.records) })
	family("topod_repl_reconnects_total", "Stream reconnect attempts by this follower.", "counter",
		func(st replStatus, emit emitFunc) { emit(st.reconnects) })
	family("topod_repl_snapshots_total", "Bootstrap snapshots this follower loaded.", "counter",
		func(st replStatus, emit emitFunc) { emit(st.snapshots) })
	family("topod_repl_bytes_received_total", "Replication stream bytes received by this follower.", "counter",
		func(st replStatus, emit emitFunc) { emit(st.bytes) })
}

// replPos is a point in a primary's WAL history: gen is the checkpoint
// generation, seq counts records within it (1-based; seq 0 means
// "generation just opened, nothing applied yet").
type replPos struct{ gen, seq uint64 }

func (p replPos) String() string { return fmt.Sprintf("%d/%d", p.gen, p.seq) }

// errOutOfSync marks a record or a rotation that does not follow the
// applied position (apply, rotate). The replica reacts by dropping the
// stream and reconnecting in bootstrap mode — it never applies out of
// order and never re-applies.
var errOutOfSync = errors.New("repl: record does not follow the applied position")

// replica is the follower loop of one index registered with
// IndexSpec.Follower. It connects to the primary's /v1/replicate,
// bootstraps the instance from the streamed snapshot when it cannot
// resume, applies the record tail, and reconnects with capped jittered
// exponential backoff on any stream error, resuming from the applied
// position. That position is the durable state's (durable.position),
// which bootstrap, apply and rotate move under d.mu; the replica keeps
// only what the durable state does not know.
type replica struct {
	inst *Instance
	cfg  *FollowConfig
	rng  *rand.Rand

	mu             sync.Mutex
	connected      bool
	primary        replPos // as last advertised: preamble, records, rotate, heartbeat
	lastContact    time.Time
	reconnects     uint64
	snapshots      uint64
	records        uint64
	bytes          uint64
	forceBootstrap bool
}

// replStatus is a snapshot of one replica's replication state.
type replStatus struct {
	connected    bool // a live stream: preamble received, no error since
	bootstrapped bool // the index holds a dataset
	applied      replPos
	primary      replPos
	lagRecords   uint64 // between applied and primary
	lastContact  time.Time
	reconnects   uint64 // stream re-establishment attempts after the first
	snapshots    uint64 // bootstrap snapshots loaded
	records      uint64 // records applied
	bytes        uint64 // stream bytes received
}

// status reads the applied position from the durable state, then the
// replica's own fields.
func (r *replica) status() replStatus {
	gen, seq, ok := r.inst.dur.position()
	applied := replPos{gen, seq}
	r.mu.Lock()
	defer r.mu.Unlock()
	return replStatus{
		connected:    r.connected,
		bootstrapped: ok,
		applied:      applied,
		primary:      r.primary,
		lagRecords:   lagRecords(applied, r.primary),
		lastContact:  r.lastContact,
		reconnects:   r.reconnects,
		snapshots:    r.snapshots,
		records:      r.records,
		bytes:        r.bytes,
	}
}

// lagRecords counts records between applied and the primary's
// advertised position. Across a generation boundary the exact count is
// unknowable from positions alone; the primary-side sequence is a
// lower bound, and +1 keeps a pending rotation from reading as "caught
// up".
func lagRecords(applied, primary replPos) uint64 {
	switch {
	case primary.gen == applied.gen:
		if primary.seq > applied.seq {
			return primary.seq - applied.seq
		}
		return 0
	case primary.gen > applied.gen:
		return primary.seq + 1
	}
	return 0
}

// run replicates until ctx is cancelled. Stream errors are absorbed:
// the replica backs off and reconnects, resuming from the applied
// position (or re-bootstrapping when the primary's history no longer
// contains it).
func (r *replica) run(ctx context.Context) {
	for attempt := 0; ; attempt++ {
		// Every stream ends in an error; which one does not change
		// what happens next.
		progressed, _ := r.streamOnce(ctx)
		r.mu.Lock()
		r.connected = false
		r.reconnects++
		r.mu.Unlock()
		if ctx.Err() != nil {
			return
		}
		if progressed {
			// The link worked: restart the backoff schedule.
			attempt = 0
		}
		if retry.Sleep(ctx, r.cfg.Backoff.Delay(attempt, r.rng)) != nil {
			return
		}
	}
}

// countingReader is the stream as the replica reads it: every byte
// counts into its tally, is contact with the primary, and is progress
// that rearms the stall watchdog.
type countingReader struct {
	src io.Reader
	r   *replica
	dog *time.Timer
}

func (c countingReader) Read(p []byte) (int, error) {
	n, err := c.src.Read(p)
	if n > 0 {
		c.dog.Reset(c.r.cfg.StallTimeout)
		c.r.mu.Lock()
		c.r.bytes += uint64(n)
		c.r.lastContact = time.Now()
		c.r.mu.Unlock()
	}
	return n, err
}

// fail ends a stream with err, first making the next connection a
// bootstrap when err says the replica no longer follows its primary.
func (r *replica) fail(err error) error {
	if errors.Is(err, errOutOfSync) {
		r.mu.Lock()
		r.forceBootstrap = true
		r.mu.Unlock()
	}
	return err
}

// streamOnce runs one replication stream to completion (always an
// error — streams only end by breaking). progressed reports whether
// any frame was processed, which resets the reconnect backoff.
func (r *replica) streamOnce(ctx context.Context) (progressed bool, err error) {
	sctx, cancel := context.WithCancel(ctx)
	defer cancel()

	target := strings.TrimSuffix(r.cfg.Primary, "/") + "/v1/replicate?index=" + url.QueryEscape(r.inst.Name)
	r.mu.Lock()
	force := r.forceBootstrap
	r.mu.Unlock()
	gen, seq, booted := r.inst.dur.position()
	pos := replPos{gen, seq}
	if booted && !force {
		target += fmt.Sprintf("&gen=%d&seq=%d", gen, seq)
	}
	req, err := http.NewRequestWithContext(sctx, http.MethodGet, target, nil)
	if err != nil {
		return false, err
	}
	// Progress watchdog: a stream that stops delivering bytes (stalled
	// link, silent primary) is cancelled, which unblocks the pending
	// read. Armed before the request so a primary that accepts the
	// connection but never answers — a stall inside the response header
	// — trips it too. The primary heartbeats well inside StallTimeout,
	// so an idle-but-healthy stream never trips it.
	dog := time.AfterFunc(r.cfg.StallTimeout, cancel)
	defer dog.Stop()

	resp, err := r.cfg.Client.Do(req)
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	dog.Reset(r.cfg.StallTimeout)
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return false, fmt.Errorf("repl: primary returned HTTP %d", resp.StatusCode)
	}

	rd := wal.NewReader(countingReader{src: resp.Body, r: r, dog: dog})
	_, p, err := rd.Next()
	if err != nil {
		return false, err
	}
	if len(p) != preambleLen {
		return false, fmt.Errorf("repl: stream opened with a %d-byte frame, want the %d-byte preamble", len(p), preambleLen)
	}
	at := replPos{word(p, 0), word(p, 1)}
	if size := word(p, 2); size > 0 {
		if err := r.bootstrap(at, rd, int64(size)); err != nil {
			return false, fmt.Errorf("repl: bootstrap: %w", err)
		}
		r.mu.Lock()
		r.snapshots++
		r.forceBootstrap = false
		r.mu.Unlock()
	} else if at != pos {
		return false, fmt.Errorf("repl: primary resumed at %v, requested %v", at, pos)
	}
	r.mu.Lock()
	r.connected = true
	r.primary = at
	r.mu.Unlock()

	// Records are applied a run at a time: every whole record frame one
	// read of the stream delivered, so a replica catching up commits
	// each read with one fsync.
	var run []wal.Record
	for {
		rec, p, err := rd.Next()
		if err == nil && p == nil {
			if run = append(run, rec); rd.Buffered() {
				continue
			}
		}
		if len(run) > 0 {
			if err := r.apply(at, run); err != nil {
				return true, r.fail(fmt.Errorf("repl: apply %d records after %v: %w", len(run), at, err))
			}
			at.seq += uint64(len(run))
			run = run[:0]
			r.mu.Lock()
			r.primary = at
			r.mu.Unlock()
		}
		if err != nil {
			return true, err
		}
		switch len(p) {
		case 0: // the run above
		case rotateLen:
			gen := word(p, 0)
			if err := r.rotate(gen); err != nil {
				return true, r.fail(fmt.Errorf("repl: rotate to gen %d: %w", gen, err))
			}
			at = replPos{gen: gen}
			r.mu.Lock()
			if r.primary.gen < gen {
				r.primary = at
			}
			r.mu.Unlock()
		case heartbeatLen:
			r.mu.Lock()
			r.primary = replPos{word(p, 0), word(p, 1)}
			r.mu.Unlock()
		default:
			return true, fmt.Errorf("repl: unexpected %d-byte frame in the record tail", len(p))
		}
	}
}

// bootstrap replaces the instance's state with the checkpoint image
// taken at pos on the primary: decode and verify it as it arrives while
// teeing the received bytes into N.flat.tmp, adopt it as a tree
// (materialise), put the tmp file in place as this replica's own
// checkpoint (so a promoted node reboots into the same state), open the
// matching WAL generation, and atomically swap the read view over. A
// snapshot that fails any check never replaces N.flat: the previous
// state keeps serving (possibly stale, never wrong) and the loop
// retries with backoff. The tmp file is written outside d.mu: the
// follower loop is the only writer of a following index's image until
// it stops. It must consume snap fully on success.
func (r *replica) bootstrap(pos replPos, snap io.Reader, size int64) error {
	inst, d := r.inst, r.inst.dur
	flat, err := r.receive(snap, size, pos)
	if err != nil {
		_ = os.Remove(d.tmpPath())
		return err
	}
	idx, err := materialise(flat, d.spec)
	if err != nil {
		_ = os.Remove(d.tmpPath())
		return fmt.Errorf("server: %w", err)
	}

	d.mu.Lock()
	defer d.mu.Unlock()
	// The local WAL then holds exactly the records applied after pos.
	if err := d.install(pos.gen); err != nil {
		return fmt.Errorf("server: persisting snapshot: %w", err)
	}
	d.since = int(pos.seq)
	inst.serve(idx)
	// A bootstrap replaces the whole logical state, so no cached answer of
	// the old contents may survive it, and no watch stream either: no
	// commit describes the swap, so no enter or exit reports it. Each
	// subscriber is ended, as a lagging one is, and resubscribes against
	// the new baseline.
	inst.bumpGen()
	if inst.cache != nil {
		inst.cache.invalidateAll(inst.Name)
	}
	inst.watch.Reset(watchResetReason)
	return nil
}

// watchResetReason ends a replica's watch streams when a bootstrap
// replaces the index's contents.
const watchResetReason = "bootstrap: the replica loaded a new snapshot"

// receive decodes the size-byte snapshot of generation pos.gen from
// snap, writing the bytes it reads to N.flat.tmp and fsyncing them.
func (r *replica) receive(snap io.Reader, size int64, pos replPos) (*rtree.FlatTree, error) {
	var flat *rtree.FlatTree
	in := &io.LimitedReader{R: snap, N: size}
	err := writeFileSync(r.inst.dur.tmpPath(), func(w io.Writer) error {
		bw := bufio.NewWriter(w)
		var err error
		if flat, err = rtree.OpenFlat(io.TeeReader(in, bw)); err != nil {
			return fmt.Errorf("server: decoding snapshot: %w", err)
		}
		if in.N != 0 {
			return fmt.Errorf("server: snapshot ended %d bytes short of the %d announced", in.N, size)
		}
		if flat.Generation() != pos.gen {
			return fmt.Errorf("server: snapshot generation %d does not match stream position %v", flat.Generation(), pos)
		}
		return bw.Flush()
	})
	return flat, err
}

// apply applies a run of replicated records that follows pos under one
// hold of the mutation lock. Each record goes through applyRecord, the
// step recovery replays with, and is published to the watch table,
// counted in the generation and dropped from the cache as its own
// commit would be; the run is then reserved as one WAL run, so one group
// commit — one fsync — makes it durable. A run that does not start at
// the applied position, or a record the tree rejects — replica and
// primary diverged — reports errOutOfSync, the records before it applied
// and logged, so the loop re-bootstraps instead of guessing; a run the
// local log refused does not (the index is unhealthy by then, as on a
// primary).
func (r *replica) apply(pos replPos, recs []wal.Record) error {
	inst, d := r.inst, r.inst.dur
	d.mu.Lock()
	if d.log == nil {
		d.mu.Unlock()
		return fmt.Errorf("server: record before bootstrap: %w", errOutOfSync)
	}
	if pos.gen != d.gen || pos.seq != uint64(d.since) {
		d.mu.Unlock()
		return fmt.Errorf("server: records after %v do not follow %d/%d: %w", pos, d.gen, d.since, errOutOfSync)
	}
	idx := inst.ReadIndex()
	var err error
	n := 0
	for ; n < len(recs); n++ {
		if err = applyRecord(idx, recs[n]); err != nil {
			err = fmt.Errorf("server: applying %s oid %d: %v: %w", recs[n].Op, recs[n].OID, err, errOutOfSync)
			break
		}
		inst.publishLocked(recs[n : n+1])
	}
	ticket, cpErr := d.reserveLocked(inst, recs[:n])
	d.mu.Unlock()
	r.mu.Lock()
	r.records += uint64(n)
	r.mu.Unlock()
	if lerr := d.settle(inst, ticket, cpErr); lerr != nil {
		return lerr
	}
	return err
}

// rotate mirrors a primary checkpoint: the stream guarantees every
// record of the old generation arrived first, so checkpointing here
// publishes, at the same boundary as the primary, an image with the
// primary's answers, and opens the matching new WAL generation newGen.
// The image need not be the primary's byte for byte: the WAL has no
// batch boundaries, so records the primary STR-packed into an empty
// tree arrive here one by one, and the tree can take another shape
// (DESIGN §8).
func (r *replica) rotate(newGen uint64) error {
	inst, d := r.inst, r.inst.dur
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.log == nil {
		return fmt.Errorf("server: rotate before bootstrap: %w", errOutOfSync)
	}
	if newGen != d.gen+1 {
		return fmt.Errorf("server: rotate to %d from generation %d: %w", newGen, d.gen, errOutOfSync)
	}
	return d.checkpoint(inst)
}
