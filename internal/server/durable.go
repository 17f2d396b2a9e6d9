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

	// faults is nil outside the tests (see faultPlan).
	faults *faultPlan
}

// faultPlan is where a test makes the durable write path fail, as a
// full disk or a dead process would. The third seam, a replication
// stream that breaks, needs no hook: a test hands the follower an
// http.Client whose connections fault.
type faultPlan struct {
	// walWrite runs before every WAL append write with its offset and
	// length; an error fails the append (wal.Options.WriteHook).
	walWrite func(off int64, n int) error
	// checkpointStep runs after each of install's four steps; an error
	// abandons the install right there.
	checkpointStep func(step int) error
}

// walWrite is the log's write hook: the plan's arm, if one is set.
func (d *durable) walWrite(off int64, n int) error {
	if d.faults == nil || d.faults.walWrite == nil {
		return nil
	}
	return d.faults.walWrite(off, n)
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
// indexes.
func (s *Server) registerWALMetrics() {
	family := func(name, help, typ string, value func(wal.GroupStats) any) {
		s.metrics.collect(name, help, typ, func(emit emitFunc) {
			for _, inst := range s.listInstances() {
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
func (d *durable) tmpPath() string  { return d.flatPath() + ".tmp" }
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
// next) the durable state: write streams the image into N.flat.tmp,
// which install then puts in place. write must tag the image generation
// next. Caller holds d.mu.
func (d *durable) publish(next uint64, write func(io.Writer) error) error {
	if err := writeFileSync(d.tmpPath(), write); err != nil {
		_ = os.Remove(d.tmpPath())
		return err
	}
	return d.install(next)
}

// install makes the image of generation next waiting in N.flat.tmp, and
// an empty log of generation next, the durable state, in four steps.
// What a crash after each leaves behind, and what the next boot makes
// of it:
//
//  1. N.flat.tmp written and fsynced — the old (image, log) pair is
//     intact; boot deletes the tmp file, torn or whole
//  2. tmp renamed over N.flat, directory fsynced — the new image rules:
//     its log is missing ⇒ empty, the old log is stale and deleted
//  3. old log closed (flushing reservations the image already holds),
//     N.wal.<next> opened — as 2, with the empty log present
//  4. every other log generation removed, directory fsynced — done
//
// Caller holds d.mu.
func (d *durable) install(next uint64) error {
	step := func(n int) error {
		if d.faults != nil && d.faults.checkpointStep != nil {
			return d.faults.checkpointStep(n)
		}
		return nil
	}
	if err := step(1); err != nil {
		return err
	}
	if err := os.Rename(d.tmpPath(), d.flatPath()); err != nil {
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
// tree adopts the image's nodes — its root is the decoded root, every
// node version shared — so its shape, and every query's node accesses, are
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

// Checkpoint forces a checkpoint now (topod runs one on clean
// shutdown so the next boot replays nothing).
func (inst *Instance) Checkpoint() error {
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

// legacySnapshot refuses a directory holding a layout this binary
// cannot serve; building a fresh index over it, or beside it, would
// silently abandon that data. Two layouts qualify:
//
//	N.snap with no N.flat   a paged snapshot from before MBRFLAT1 became
//	                        the only checkpoint format
//	N.t<i>.*                any file of a tile layout: an index once
//	                        partitioned into STR tiles, each with its own
//	                        image and WAL
func legacySnapshot(dir, name string) error {
	snap := filepath.Join(dir, name+".snap")
	if _, err := os.Stat(snap); err == nil {
		if _, err := os.Stat(filepath.Join(dir, name+".flat")); err != nil {
			return fmt.Errorf("server: index %q: %s is a paged snapshot from before MBRFLAT1 became the only checkpoint format and has no %s.flat beside it; boot the directory once with a pre-PR-12 topod -flat and shut it down cleanly so it checkpoints a flat image",
				name, snap, name)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("server: index %q: %w", name, err)
	}
	var tiles []string
	for _, e := range entries {
		if tileFile(e.Name(), name) {
			tiles = append(tiles, e.Name())
		}
	}
	if len(tiles) > 0 {
		return fmt.Errorf("server: index %q: %s holds a tile layout (%s), which this binary does not serve; it serves one tree per index from %s.flat and %s.wal.<gen>. Move the files aside or boot the directory with the topod that wrote them",
			name, dir, strings.Join(tiles, ", "), name, name)
	}
	return nil
}

// tileFile reports whether file is name.t<i>.<anything>.
func tileFile(file, name string) bool {
	rest, ok := strings.CutPrefix(file, name+".t")
	if !ok {
		return false
	}
	ordinal, _, ok := strings.Cut(rest, ".")
	if !ok || ordinal == "" {
		return false
	}
	_, err := strconv.ParseUint(ordinal, 10, 64)
	return err == nil
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
	d := &durable{spec: spec, metrics: s.metrics}
	d.walOpts = wal.Options{Policy: spec.Fsync, WriteHook: d.walWrite}
	inst := &Instance{Name: spec.Name, Kind: spec.Kind, dur: d}
	if spec.Follower {
		// A follower shell: no local state yet — image and WAL arrive
		// through the replication stream (replica.bootstrap). Until then
		// the instance has no read view and answers 503.
		inst.backend = "follower"
		d.spec.CheckpointEvery = 0 // checkpoints are driven by the primary's rotations
		return inst, nil
	}

	_ = os.Remove(d.tmpPath()) // a checkpoint cut short before its rename
	image, err := os.Open(d.flatPath())
	if err == nil {
		s.recoverDurable(d, inst, image)
		image.Close()
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

// recoverDurable boots from N.flat, decoded as it is read, plus the WAL
// its generation names. Any failure marks the instance unhealthy instead
// of returning an error.
func (s *Server) recoverDurable(d *durable, inst *Instance, image io.Reader) {
	fail := func(reason string) {
		inst.MarkUnhealthy(reason)
		if d.log != nil {
			d.log.Close()
			d.log = nil
		}
	}

	flat, err := rtree.OpenFlat(image)
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
