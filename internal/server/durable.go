package server

import (
	"errors"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"

	"mbrtopo/internal/index"
	"mbrtopo/internal/pagefile"
	"mbrtopo/internal/rtree"
	"mbrtopo/internal/wal"
)

// The durable state of an index named N in a data directory is two
// files:
//
//	N.flat        the last checkpoint: an MBRFLAT1 image (rtree/flat.go)
//	              carrying its generation in the header under two
//	              CRC32-C checksums; replaced atomically (tmp + rename)
//	N.wal.<gen>   the mutations applied since checkpoint <gen>
//
// The mutable tree lives in memory, exactly like a non-durable index;
// nothing on disk is ever modified in place.
// Mutations apply to the tree and append to the WAL before the 200 is
// written. The generation in the image header names the one log that
// continues it, so a crash between the rename and the old log's
// removal can never double-apply: the new image points at the new
// (empty or missing ⇒ empty) generation and the stale log is deleted.
// d.mu is the instance's mutation lock (mutLock).
type durable struct {
	mu   sync.Mutex
	spec IndexSpec

	log     *wal.Log
	walOpts wal.Options
	gen     uint64

	since   int // records since the last checkpoint
	metrics *Metrics

	// wake is closed (and replaced) whenever new WAL records become
	// readable or the log rotates, so replication streamers wait on a
	// channel instead of polling the file. Lazily created; guarded by
	// mu.
	wake chan struct{}

	// gacc accumulates group-commit counters of retired WAL
	// generations, so /metrics counters never move backwards across a
	// checkpoint rotation.
	gacc wal.GroupStats

	// failAfter, when set by a crash test, runs after each of publish's
	// four steps; an error abandons the publish right there, as a dead
	// process would.
	failAfter func(step int) error
}

// groupStats returns cumulative group-commit counters across all WAL
// generations of this index.
func (d *durable) groupStats() wal.GroupStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	gs := d.gacc
	if d.log != nil {
		addGroupStats(&gs, d.log.GroupStats())
	}
	return gs
}

func addGroupStats(acc *wal.GroupStats, gs wal.GroupStats) {
	acc.Commits += gs.Commits
	acc.Records += gs.Records
	if gs.MaxBatch > acc.MaxBatch {
		acc.MaxBatch = gs.MaxBatch
	}
	acc.CommitTime += gs.CommitTime
}

// registerWALMetrics adds the group-commit families of the durable
// indexes, tiles included.
func (s *Server) registerWALMetrics() {
	family := func(name, help, typ string, value func(wal.GroupStats) any) {
		s.metrics.collect(name, help, typ, func(emit emitFunc) {
			for _, inst := range s.statInstances() {
				if inst.dur != nil {
					emit(value(inst.dur.groupStats()), "index", inst.Name)
				}
			}
		})
	}
	family("topod_wal_group_commits_total", "Durable WAL batch flushes (one write + one policy fsync each), by index.", "counter",
		func(gs wal.GroupStats) any { return gs.Commits })
	family("topod_wal_group_records_total", "Records across those flushes; records/commits is the achieved batching.", "counter",
		func(gs wal.GroupStats) any { return gs.Records })
	family("topod_wal_group_max_batch_records", "Largest single flush, in records.", "gauge",
		func(gs wal.GroupStats) any { return gs.MaxBatch })
	family("topod_wal_commit_seconds_total", "Cumulative wall time inside WAL write+fsync, by index.", "counter",
		func(gs wal.GroupStats) any { return gs.CommitTime.Seconds() })
}

// waitChLocked returns the channel the next signal will close. A
// streamer grabs it BEFORE scanning the WAL, so a record flushed
// between the scan and the wait still wakes it. Caller holds d.mu.
func (d *durable) waitChLocked() chan struct{} {
	if d.wake == nil {
		d.wake = make(chan struct{})
	}
	return d.wake
}

// signalLocked wakes every streamer parked on the current wake channel
// and installs a fresh one. Caller holds d.mu.
func (d *durable) signalLocked() {
	if d.wake != nil {
		close(d.wake)
		d.wake = nil
	}
}

// signal is signalLocked for callers outside the lock (the WAL flush
// path, which settles tickets after releasing d.mu).
func (d *durable) signal() {
	d.mu.Lock()
	d.signalLocked()
	d.mu.Unlock()
}

// position returns the durable position (gen, records since that
// generation's checkpoint). ok is false while the index has no open
// log — recovery failed, or a follower shell not yet bootstrapped.
func (d *durable) position() (gen, seq uint64, ok bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.log == nil {
		return 0, 0, false
	}
	return d.gen, uint64(d.since), true
}

func (d *durable) flatPath() string { return filepath.Join(d.spec.Dir, d.spec.Name+".flat") }
func (d *durable) walPath(gen uint64) string {
	return filepath.Join(d.spec.Dir, d.spec.Name+".wal."+strconv.FormatUint(gen, 10))
}

// walGens lists the WAL generations of this index present on disk.
func (d *durable) walGens() []uint64 {
	prefix := filepath.Join(d.spec.Dir, d.spec.Name+".wal.")
	matches, _ := filepath.Glob(prefix + "*")
	var gens []uint64
	for _, m := range matches {
		if g, err := strconv.ParseUint(strings.TrimPrefix(m, prefix), 10, 64); err == nil {
			gens = append(gens, g)
		}
	}
	return gens
}

// removeStaleWALs deletes every WAL generation but the current one.
func (d *durable) removeStaleWALs() {
	for _, g := range d.walGens() {
		if g != d.gen {
			_ = os.Remove(d.walPath(g))
		}
	}
}

// syncDir fsyncs a directory so a just-renamed file is durable.
func syncDir(dir string) error {
	f, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer f.Close()
	return f.Sync()
}

// writeFileSync creates (or truncates) path, fills it through write
// and fsyncs it.
func writeFileSync(path string, write func(io.Writer) error) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// publish makes (image of generation next, empty log of generation
// next) the durable state, in four steps. What a crash after each
// leaves behind, and what the next boot makes of it:
//
//  1. N.flat.tmp written and fsynced — the old (image, log) pair is
//     intact; boot deletes the tmp file, torn or whole
//  2. tmp renamed over N.flat, directory fsynced — the new image rules:
//     its log is missing ⇒ empty, the old log is stale and deleted
//  3. old log closed (flushing reservations the image already holds),
//     N.wal.<next> opened — as 2, with the empty log present
//  4. every other log generation removed, directory fsynced — done
//
// write streams the image; it must be tagged generation next. Caller
// holds d.mu.
func (d *durable) publish(next uint64, write func(io.Writer) error) error {
	step := func(n int) error {
		if d.failAfter != nil {
			return d.failAfter(n)
		}
		return nil
	}
	tmp := d.flatPath() + ".tmp"
	if err := writeFileSync(tmp, write); err != nil {
		_ = os.Remove(tmp)
		return err
	}
	if err := step(1); err != nil {
		return err
	}
	if err := os.Rename(tmp, d.flatPath()); err != nil {
		return err
	}
	if err := syncDir(d.spec.Dir); err != nil {
		return err
	}
	if err := step(2); err != nil {
		return err
	}
	if d.log != nil {
		_ = d.log.Close()
		addGroupStats(&d.gacc, d.log.GroupStats())
		d.log = nil
	}
	log, stale, err := wal.Open(d.walPath(next), d.walOpts)
	if err != nil {
		return err
	}
	if len(stale) != 0 {
		// A fresh generation must be empty; anything else is a leftover
		// the image already covers.
		if err := log.Truncate(); err != nil {
			log.Close()
			return err
		}
	}
	d.log, d.gen, d.since = log, next, 0
	if err := step(3); err != nil {
		return err
	}
	d.removeStaleWALs()
	if err := syncDir(d.spec.Dir); err != nil {
		return err
	}
	return step(4)
}

// checkpoint publishes the tree as generation gen+1 and wakes
// replication streamers: the old generation is final (closing it
// flushed every reservation) and a new one is open. Without an open log
// — recovery failed, or a follower shell not yet bootstrapped — there
// is no durable state to continue. Caller holds d.mu.
func (d *durable) checkpoint(inst *Instance) error {
	if d.log == nil {
		return nil
	}
	next := d.gen + 1
	err := d.publish(next, func(w io.Writer) error { return index.WriteFlat(inst.ReadIndex(), w, next) })
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	d.metrics.checkpoints.Add(1)
	d.signalLocked()
	return nil
}

// materialise turns a validated checkpoint image into the mutable tree
// it was taken from (every boot from an image, follower bootstrap). The
// tree adopts the image's nodes — one slot-table copy, every node
// version shared — so its shape, and every query's node accesses, are
// the checkpointed tree's. Only an image written under another
// -pagesize, whose nodes do not fit their recorded page cost, is
// rebuilt from its entries by one InsertBatch.
func materialise(flat *rtree.FlatTree, spec IndexSpec) (index.Index, error) {
	idx, err := index.Adopt(spec.Kind, spec.PageSize, flat)
	if err == nil {
		log.Printf("server: index %q: adopted the checkpoint image of generation %d as the working tree", spec.Name, flat.Generation())
		return idx, nil
	}
	if !errors.Is(err, rtree.ErrNodeCapacity) {
		return nil, err
	}
	log.Printf("server: index %q: rebuilding the working tree from the checkpoint image's entries: %v", spec.Name, err)
	if idx, err = newTree(spec); err != nil {
		return nil, err
	}
	if recs := flat.Records(); len(recs) > 0 {
		if err := idx.InsertBatch(recs); err != nil {
			return nil, fmt.Errorf("rebuilding tree from checkpoint image: %w", err)
		}
	}
	return idx, nil
}

// afterReserveLocked counts n records just reserved and runs the
// automatic checkpoint when the log has grown enough. The checkpoint closes the
// old log generation, which flushes any reservation still pending on
// it, so tickets taken before the rotation resolve normally. Caller
// holds d.mu.
func (d *durable) afterReserveLocked(inst *Instance, n int) error {
	d.metrics.walRecords.Add(uint64(n))
	d.since += n
	if every := d.spec.CheckpointEvery; every > 0 && d.since >= every {
		return d.checkpoint(inst)
	}
	return nil
}

// settle waits, outside the mutation lock, for the WAL flush — the
// records are on the log, per the fsync policy, before the caller writes
// its 200, and concurrent mutations share that flush through the log's
// group commit: while one waits here the next is already applying and
// reserving — and folds in a checkpoint failure. Both degrade the index
// to unhealthy: an unlogged mutation violates the durability contract,
// and a failed checkpoint leaves a log that can only grow.
func (d *durable) settle(inst *Instance, ticket *wal.Ticket, cpErr error) error {
	if err := ticket.Wait(); err != nil {
		inst.MarkUnhealthy("wal append failed: " + err.Error())
		return fmt.Errorf("server: mutation applied but not logged: %w", err)
	}
	// The record (and its whole batch) is on the log file now: wake
	// replication streamers parked on the wake channel.
	d.signal()
	if cpErr != nil {
		inst.MarkUnhealthy("checkpoint failed: " + cpErr.Error())
		return fmt.Errorf("server: mutation logged but checkpoint failed: %w", cpErr)
	}
	return nil
}

// eachTile runs fn on every tile of a sharded parent and returns the
// first failure.
func (inst *Instance) eachTile(fn func(*Instance) error) error {
	var firstErr error
	for _, t := range inst.tiles {
		if err := fn(t); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Checkpoint forces a checkpoint now (topod runs one on clean
// shutdown so the next boot replays nothing).
func (inst *Instance) Checkpoint() error {
	if len(inst.tiles) > 0 {
		return inst.eachTile((*Instance).Checkpoint)
	}
	if inst.dur == nil {
		return nil
	}
	inst.dur.mu.Lock()
	defer inst.dur.mu.Unlock()
	return inst.dur.checkpoint(inst)
}

// Close checkpoints — when healthy, and when anything was logged since
// the image on disk, so the next boot replays nothing — and releases
// the log.
func (inst *Instance) Close() error {
	if len(inst.tiles) > 0 {
		return inst.eachTile((*Instance).Close)
	}
	d := inst.dur
	if d == nil {
		return nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	var firstErr error
	if inst.Healthy() && d.since > 0 {
		firstErr = d.checkpoint(inst)
	}
	if d.log != nil {
		if err := d.log.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
		d.log = nil
	}
	return firstErr
}

// legacySnapshot refuses a directory written before MBRFLAT1 became
// the only checkpoint format: a paged N.snap (or per-tile N.t<i>.snap)
// with no flat image beside it holds data this binary cannot read, and
// building a fresh index over it would silently abandon that data.
func legacySnapshot(dir, name string) error {
	for _, pattern := range []string{name + ".snap", name + ".t*.snap"} {
		snaps, _ := filepath.Glob(filepath.Join(dir, pattern))
		for _, snap := range snaps {
			flat := strings.TrimSuffix(snap, ".snap") + ".flat"
			if _, err := os.Stat(flat); err != nil {
				return fmt.Errorf("server: index %q: %s is a paged snapshot from before MBRFLAT1 became the only checkpoint format and has no %s beside it; boot the directory once with a pre-PR-12 topod -flat and shut it down cleanly so it checkpoints a flat image",
					name, snap, filepath.Base(flat))
			}
		}
	}
	return nil
}

// openDurable builds or recovers a durable instance. The boot decision
// is two questions — is N.flat there and valid, is its log quiet:
//
//	no N.flat                 build from items, publish generation 1 (backend "paged")
//	valid, log quiet          materialise                            (backend "flat")
//	valid, log has records    materialise, replay, checkpoint        (backend "recovered")
//
// An N.flat that fails its checksums, belongs to another tree kind, or
// is older than a log on disk does not abort: the instance comes back
// unhealthy with no tree, so the server answers 503 on its routes
// instead of crashing or guessing — "degrade, don't serve garbage".
func (s *Server) openDurable(spec IndexSpec, items []index.Item) (*Instance, error) {
	if err := os.MkdirAll(spec.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("server: index %q: %w", spec.Name, err)
	}
	d := &durable{
		spec:    spec,
		walOpts: wal.Options{Policy: spec.Fsync, WriteHook: spec.WALWriteHook},
		metrics: s.metrics,
	}
	inst := &Instance{Name: spec.Name, Kind: spec.Kind, dur: d}
	if spec.Follower {
		// A follower shell: no local state yet — image and WAL arrive
		// through the replication stream's Bootstrap. Until then the
		// instance has no read view and answers 503.
		inst.backend = "follower"
		d.spec.CheckpointEvery = 0 // checkpoints are driven by the primary's rotations
		return inst, nil
	}

	_ = os.Remove(d.flatPath() + ".tmp") // a checkpoint cut short before its rename
	data, err := os.ReadFile(d.flatPath())
	if err == nil {
		s.recoverDurable(d, inst, data)
		return inst, nil
	}
	if !errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("server: index %q: %w", spec.Name, err)
	}

	// Fresh directory: build from items and publish generation 1 before
	// serving.
	idx, err := newTree(spec)
	if err == nil {
		err = loadItems(idx, items, spec.Bulk)
	}
	if err == nil {
		err = d.publish(1, func(w io.Writer) error { return index.WriteFlat(idx, w, 1) })
	}
	if err != nil {
		return nil, fmt.Errorf("server: index %q: %w", spec.Name, err)
	}
	inst.serve(idx)
	return inst, nil
}

// recoverDurable boots from the bytes of N.flat plus the WAL its
// generation names. Any failure marks the instance unhealthy instead
// of returning an error.
func (s *Server) recoverDurable(d *durable, inst *Instance, data []byte) {
	fail := func(reason string) {
		inst.MarkUnhealthy(reason)
		if d.log != nil {
			d.log.Close()
			d.log = nil
		}
	}

	flat, err := rtree.OpenFlatBytes(data)
	if err != nil {
		if errors.Is(err, pagefile.ErrCorrupt) {
			s.metrics.checksumFailures.Add(1)
		}
		fail(fmt.Sprintf("opening %s: %v", d.flatPath(), err))
		return
	}
	gen := flat.Generation()
	for _, g := range d.walGens() {
		if g > gen {
			// The log continues a checkpoint newer than the image we
			// have: replaying it over this one would invent a history.
			fail(fmt.Sprintf("%s is generation %d but %s exists: the image is stale", d.flatPath(), gen, d.walPath(g)))
			return
		}
	}
	idx, err := materialise(flat, d.spec)
	if err != nil {
		fail(fmt.Sprintf("%s: %v", d.flatPath(), err))
		return
	}
	log, recs, err := wal.Open(d.walPath(gen), d.walOpts)
	if err != nil {
		fail("opening wal: " + err.Error())
		return
	}
	d.log, d.gen = log, gen
	d.removeStaleWALs() // left by a checkpoint cut short after its rename
	inst.Recovered = true
	if len(recs) == 0 {
		inst.backend = "flat"
		inst.serve(idx)
		return
	}
	for i, rec := range recs {
		if err := applyRecord(idx, rec); err != nil {
			// Replayed records are exactly the mutations that
			// succeeded before the crash, in order, so a replay
			// failure means the image and log disagree.
			fail(fmt.Sprintf("replaying wal record %d/%d (%s oid %d): %v",
				i+1, len(recs), rec.Op, rec.OID, err))
			return
		}
	}
	s.metrics.walReplays.Add(uint64(len(recs)))
	inst.Replayed = len(recs)
	inst.backend = "recovered"
	inst.serve(idx)
	if err := d.checkpoint(inst); err != nil {
		fail("post-recovery checkpoint: " + err.Error())
	}
}
