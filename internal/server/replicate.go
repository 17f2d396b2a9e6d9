package server

import (
	"context"
	"encoding/binary"
	"io"
	"net/http"
	"strconv"
	"time"

	"mbrtopo/internal/index"
	"mbrtopo/internal/rtree"
	"mbrtopo/internal/wal"
)

// handleReplicate serves GET /v1/replicate?index=N[&gen=G&seq=S]: one
// long-lived response carrying the index's own files. It opens with a
// preamble frame — the start position and the image length, 0 when the
// stream resumes — then, on a bootstrap, the current checkpoint image
// exactly as rtree.FlatImage.Encode writes it, then the WAL frames after
// the start position exactly as they sit in N.wal.<gen>. Rotate frames
// mark checkpoints and heartbeats keep an idle stream verifiably alive;
// they are the stream's only frames of its own, framed as the WAL frames
// are, with a length no record has.
//
// The resume decision and the snapshot's tree version are pinned under
// the durable mutex, so the pair (snapshot, position) is consistent: the
// snapshot contains exactly the first S records of generation G, and
// the record tail starts at S+1. The image is walked and streamed
// outside the mutex — the pinned version is immutable — so a slow
// follower holds that version, never a byte copy of it, and never the
// lock. A follower that asks to resume from a position still inside the
// current generation gets just the tail; any other position — an older
// generation, a future sequence, a different history — gets a fresh
// bootstrap.
func (s *Server) handleReplicate(w http.ResponseWriter, r *http.Request) {
	if s.isFollower() {
		s.rejectFollowerWrite(w, "replica does not serve replication streams")
		return
	}
	q := r.URL.Query()
	inst, err := s.instance(q.Get("index"))
	if err != nil {
		writeJSONError(w, http.StatusNotFound, err.Error())
		return
	}
	if !inst.Healthy() {
		writeJSONError(w, http.StatusServiceUnavailable,
			"index "+inst.Name+" is unhealthy: "+inst.FailReason())
		return
	}
	d := inst.dur
	if d == nil {
		writeJSONError(w, http.StatusBadRequest, "index "+inst.Name+" is not durable; nothing to replicate")
		return
	}
	var reqGen, reqSeq uint64
	resumable := q.Get("gen") != ""
	if resumable {
		var errG, errS error
		reqGen, errG = strconv.ParseUint(q.Get("gen"), 10, 64)
		reqSeq, errS = strconv.ParseUint(q.Get("seq"), 10, 64)
		if errG != nil || errS != nil {
			writeJSONError(w, http.StatusBadRequest, "gen and seq must be unsigned integers")
			return
		}
	}

	// Pin the position (and, for a bootstrap, the tree version)
	// atomically with opening the WAL tail: holding d.mu excludes
	// mutations and checkpoints, so the tail's file is the generation
	// the position names.
	d.mu.Lock()
	if d.log == nil {
		d.mu.Unlock()
		writeJSONError(w, http.StatusServiceUnavailable,
			"index "+inst.Name+" has no durable state: "+inst.FailReason())
		return
	}
	gen, seq := d.gen, uint64(d.since)
	var snap *rtree.FlatImage
	if resumable && reqGen == gen && reqSeq <= seq {
		seq = reqSeq
	} else if snap, err = index.PinFlat(inst.ReadIndex(), gen); err != nil {
		d.mu.Unlock()
		writeJSONError(w, http.StatusInternalServerError, "snapshotting index: "+err.Error())
		return
	}
	tail, err := wal.OpenTail(d.walPath(gen), seq)
	d.mu.Unlock()
	if err != nil {
		writeJSONError(w, http.StatusInternalServerError, "opening wal tail: "+err.Error())
		return
	}
	defer func() { _ = tail.Close() }()
	var size uint64
	if snap != nil {
		size = uint64(snap.Size())
	}

	s.metrics.replStreams.Add(1)
	defer s.metrics.replStreams.Add(-1)
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Cache-Control", "no-cache")
	flusher, _ := w.(http.Flusher)
	cw := &shippedWriter{w: w, m: s.metrics}

	if _, err := cw.Write(marker(gen, seq, size)); err != nil {
		return
	}
	if snap != nil {
		if err := snap.Encode(cw); err != nil {
			return
		}
		s.metrics.replSnapshotsShipped.Add(1)
	}
	if flusher != nil {
		flusher.Flush()
	}
	s.streamRecords(r.Context(), inst, cw, flusher, &tail, gen)
}

// The stream's own frames, told apart by their payload length: no record
// is 8, 16 or 24 bytes long. Each payload is little-endian u64 words.
const (
	rotateLen    = 8  // the new generation
	heartbeatLen = 16 // the primary's position (gen, seq)
	preambleLen  = 24 // the start position (gen, seq) and the image length
)

// marker frames words as one of the stream's own frames.
func marker(words ...uint64) []byte {
	p := make([]byte, 0, 8*len(words))
	for _, w := range words {
		p = binary.LittleEndian.AppendUint64(p, w)
	}
	return wal.AppendFrame(nil, p)
}

// word returns the i-th word of a marker's payload.
func word(p []byte, i int) uint64 { return binary.LittleEndian.Uint64(p[8*i:]) }

// streamRecords ships the live WAL tail: the frames of generation gen
// from the tail's position, as the file holds them, rotate frames at
// checkpoints, heartbeats while idle. It returns when the client goes
// away, the index degrades, or the stream falls so far behind that a
// generation it needs was already checkpointed away (the follower then
// reconnects and bootstraps afresh). *tailp is owned by the caller's
// defer.
func (s *Server) streamRecords(ctx context.Context, inst *Instance, w io.Writer, flusher http.Flusher, tailp **wal.Tail, gen uint64) {
	d := inst.dur
	flush := func() {
		if flusher != nil {
			flusher.Flush()
		}
	}
	drain := func() error {
		for {
			frames, n, err := (*tailp).Next()
			if n == 0 {
				return err
			}
			if _, err := w.Write(frames); err != nil {
				return err
			}
			s.metrics.replRecordsShipped.Add(uint64(n))
		}
	}

	for {
		// Grab the wake channel BEFORE scanning: a record flushed
		// between the scan going dry and the wait still closes this
		// channel, so the wait returns immediately instead of sleeping
		// a heartbeat interval.
		d.mu.Lock()
		liveGen := d.gen
		liveSeq := uint64(d.since)
		wake := d.waitChLocked()
		d.mu.Unlock()
		if !inst.Healthy() {
			return
		}
		if err := drain(); err != nil {
			return
		}
		flush()
		if liveGen != gen {
			// A checkpoint rotated the log. The old generation is final
			// — checkpoint closes it (flushing every reservation) before
			// the new position becomes observable — so draining to EOF
			// ships its complete record sequence even though the file is
			// already unlinked (the tail holds its own descriptor).
			if err := drain(); err != nil {
				return
			}
			_ = (*tailp).Close()
			gen++
			if _, err := w.Write(marker(gen)); err != nil {
				return
			}
			flush()
			next, err := wal.OpenTail(d.walPath(gen), 0)
			if err != nil {
				// The generation we need was itself checkpointed away
				// (the stream is more than one rotation behind): no
				// gapless continuation exists. Ending the stream makes
				// the follower reconnect and bootstrap afresh.
				return
			}
			*tailp = next
			continue
		}
		select {
		case <-ctx.Done():
			return
		case <-wake:
		case <-time.After(s.cfg.ReplHeartbeat):
			if _, err := w.Write(marker(gen, liveSeq)); err != nil {
				return
			}
			flush()
		}
	}
}

// shippedWriter counts replication bytes into the primary's metrics.
type shippedWriter struct {
	w io.Writer
	m *Metrics
}

func (sw *shippedWriter) Write(p []byte) (int, error) {
	n, err := sw.w.Write(p)
	if n > 0 {
		sw.m.replBytesShipped.Add(uint64(n))
	}
	return n, err
}
