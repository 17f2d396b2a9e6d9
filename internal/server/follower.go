package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"mbrtopo/internal/repl"
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
	// Client performs the replication requests (default
	// http.DefaultClient; tests inject fault-wrapped transports).
	Client *http.Client
	// Backoff paces reconnection attempts (zero value → retry defaults).
	Backoff retry.Policy
	// StallTimeout drops a stream that delivers no frame for this long
	// (default 3s; keep it a few multiples of the primary's heartbeat).
	StallTimeout time.Duration
	// Seed makes reconnect jitter deterministic in tests (0 → fixed
	// default seed).
	Seed int64
}

// followState is the replica half of a server: one repl.Follower per
// follower index, a promotion latch, and the config that names the
// primary in 403 responses.
type followState struct {
	cfg       FollowConfig
	cancel    context.CancelFunc
	wg        sync.WaitGroup
	followers map[string]*repl.Follower // fixed after Follow returns

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
	ctx, cancel := context.WithCancel(context.Background())
	fs := &followState{
		cfg:       cfg,
		cancel:    cancel,
		followers: make(map[string]*repl.Follower),
	}
	for _, inst := range s.listInstances() {
		if inst.dur == nil || !inst.dur.spec.Follower {
			continue
		}
		f := repl.NewFollower(repl.Config{
			Primary:      cfg.Primary,
			Index:        inst.Name,
			Target:       &followerTarget{s: s, inst: inst},
			Client:       cfg.Client,
			Backoff:      cfg.Backoff,
			StallTimeout: cfg.StallTimeout,
			Seed:         cfg.Seed,
		})
		fs.followers[inst.Name] = f
	}
	if len(fs.followers) == 0 {
		cancel()
		return fmt.Errorf("server: no follower indexes registered")
	}
	s.follow = fs
	for _, f := range fs.followers {
		fs.wg.Add(1)
		go func(f *repl.Follower) {
			defer fs.wg.Done()
			_ = f.Run(ctx)
		}(f)
	}
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
	for name, f := range fs.followers {
		if !f.Status().Bootstrapped {
			return fmt.Errorf("server: index %q has not bootstrapped from %s yet", name, fs.cfg.Primary)
		}
	}
	fs.stop()
	var firstErr error
	for _, inst := range s.listInstances() {
		if inst.dur == nil || !inst.dur.spec.Follower {
			continue
		}
		if !inst.Healthy() {
			continue // stays 503; promotion must not resurrect a degraded index
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

// lagSeconds is the time since the follower last heard from its
// primary — record, rotate or heartbeat — and -1 when it never has.
func lagSeconds(st repl.Status) float64 {
	if st.LastContact.IsZero() {
		return -1
	}
	return time.Since(st.LastContact).Seconds()
}

// registerReplMetrics adds the follower-side families: one sample per
// follower index, none on a node that never called Follow.
func (s *Server) registerReplMetrics() {
	family := func(name, help, typ string, sample func(st repl.Status, emit emitFunc)) {
		s.metrics.collect(name, help, typ, func(emit emitFunc) {
			if s.follow == nil {
				return
			}
			for _, inst := range s.listInstances() {
				if f := s.follow.followers[inst.Name]; f != nil {
					sample(f.Status(), func(v any, labels ...string) {
						emit(v, append([]string{"index", inst.Name}, labels...)...)
					})
				}
			}
		})
	}
	family("topod_repl_connected", "Whether the follower index has a live stream to its primary.", "gauge",
		func(st repl.Status, emit emitFunc) { emit(bit(st.Connected)) })
	family("topod_repl_lag_records", "Records the follower index is behind its primary (lower bound across rotations).", "gauge",
		func(st repl.Status, emit emitFunc) { emit(st.LagRecords) })
	family("topod_repl_lag_seconds", "Seconds since the primary was last heard from (-1 = never).", "gauge",
		func(st repl.Status, emit emitFunc) { emit(lagSeconds(st)) })
	family("topod_repl_applied_seq", "Last replication position applied, as sequence within the applied generation.", "gauge",
		func(st repl.Status, emit emitFunc) {
			emit(st.Applied.Seq, "generation", strconv.FormatUint(st.Applied.Gen, 10))
		})
	family("topod_repl_records_applied_total", "Replicated records applied by this follower.", "counter",
		func(st repl.Status, emit emitFunc) { emit(st.Records) })
	family("topod_repl_reconnects_total", "Stream reconnect attempts by this follower.", "counter",
		func(st repl.Status, emit emitFunc) { emit(st.Reconnects) })
	family("topod_repl_snapshots_total", "Bootstrap snapshots this follower loaded.", "counter",
		func(st repl.Status, emit emitFunc) { emit(st.Snapshots) })
	family("topod_repl_bytes_received_total", "Replication stream bytes received by this follower.", "counter",
		func(st repl.Status, emit emitFunc) { emit(st.Bytes) })
}

// followerTarget adapts one served instance to repl.Target: the
// follower state machine calls it to bootstrap from a snapshot, apply
// records, and rotate generations. Records go through Instance.mutate,
// the primary's own write path, so watch notification and logging
// behave identically on a replica.
type followerTarget struct {
	s    *Server
	inst *Instance
}

// Position reports the durably applied replication position; ok is
// false until the first successful bootstrap (the follower then must
// not resume, only bootstrap).
func (t *followerTarget) Position() (repl.Position, bool) {
	gen, seq, ok := t.inst.dur.position()
	return repl.Position{Gen: gen, Seq: seq}, ok
}

// Bootstrap replaces the instance's state with the checkpoint image
// taken at pos on the primary: decode and verify it as it arrives while
// teeing the received bytes into N.flat.tmp, adopt it as a tree
// (materialise), put the tmp file in place as this replica's own
// checkpoint (so a promoted node reboots into the same state), open the
// matching WAL generation, and atomically swap the read view over. A
// snapshot that fails any check never replaces N.flat: the previous
// state keeps serving (possibly stale, never wrong) and the follower
// retries with backoff. The tmp file is written outside d.mu: the
// follower loop, which calls Bootstrap, is the only writer of a
// following index's image until it stops.
func (t *followerTarget) Bootstrap(pos repl.Position, snap io.Reader, size int64) error {
	inst, d := t.inst, t.inst.dur
	flat, err := t.receive(snap, size, pos)
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
	if err := d.install(pos.Gen); err != nil {
		return fmt.Errorf("server: persisting snapshot: %w", err)
	}
	d.since = int(pos.Seq)
	inst.serve(idx)
	// Bootstrap replaces the whole logical state, so no cached answer of
	// the old contents may survive it, and no watch stream either: no
	// commit describes the swap, so no enter or exit reports it. Each
	// subscriber is ended, as a lagging one is, and resubscribes against
	// the new baseline.
	inst.bumpGen()
	if inst.cache != nil {
		inst.cache.invalidateAll(inst.Name)
	}
	if inst.watch != nil {
		inst.watch.Reset(watchResetReason)
	}
	return nil
}

// watchResetReason ends a replica's watch streams when a bootstrap
// replaces the index's contents.
const watchResetReason = "bootstrap: the replica loaded a new snapshot"

// receive decodes the size-byte snapshot of generation pos.Gen from
// snap, writing the bytes it reads to N.flat.tmp and fsyncing them.
func (t *followerTarget) receive(snap io.Reader, size int64, pos repl.Position) (*rtree.FlatTree, error) {
	var flat *rtree.FlatTree
	in := &io.LimitedReader{R: snap, N: size}
	err := writeFileSync(t.inst.dur.tmpPath(), func(w io.Writer) error {
		bw := bufio.NewWriter(w)
		var err error
		if flat, err = rtree.OpenFlat(io.TeeReader(in, bw)); err != nil {
			return fmt.Errorf("server: decoding snapshot: %w", err)
		}
		if in.N != 0 {
			return fmt.Errorf("server: snapshot ended %d bytes short of the %d announced", in.N, size)
		}
		if flat.Generation() != pos.Gen {
			return fmt.Errorf("server: snapshot generation %d does not match stream position %v", flat.Generation(), pos)
		}
		return bw.Flush()
	})
	return flat, err
}

// Apply applies one replicated record at pos: the position check in
// front of the ordinary write path. A gap or regression in pos — or a
// mutation the tree rejects, which means replica and primary states
// diverged — reports repl.ErrOutOfSync so the follower re-bootstraps
// instead of guessing; a record the local log refused does not (the
// index is unhealthy by then, as on a primary).
func (t *followerTarget) Apply(pos repl.Position, rec wal.Record) error {
	inst, d := t.inst, t.inst.dur
	err := inst.mutate([]wal.Record{rec}, func() error {
		if d.log == nil {
			return fmt.Errorf("server: record before bootstrap: %w", repl.ErrOutOfSync)
		}
		if pos.Gen != d.gen || pos.Seq != uint64(d.since)+1 {
			return fmt.Errorf("server: record %v does not follow %d/%d: %w", pos, d.gen, d.since, repl.ErrOutOfSync)
		}
		return nil
	})
	if err != nil && inst.Healthy() && !errors.Is(err, repl.ErrOutOfSync) {
		err = fmt.Errorf("server: applying %s oid %d: %v: %w", rec.Op, rec.OID, err, repl.ErrOutOfSync)
	}
	return err
}

// Rotate mirrors a primary checkpoint: the stream guarantees every
// record of the old generation arrived first, so checkpointing here
// produces a snapshot bit-equal in content to the primary's at the
// same boundary, and opens the matching new WAL generation.
func (t *followerTarget) Rotate(newGen uint64) error {
	inst, d := t.inst, t.inst.dur
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.log == nil {
		return fmt.Errorf("server: rotate before bootstrap: %w", repl.ErrOutOfSync)
	}
	if newGen != d.gen+1 {
		return fmt.Errorf("server: rotate to %d from generation %d: %w", newGen, d.gen, repl.ErrOutOfSync)
	}
	return d.checkpoint(inst)
}
