package server

import (
	"context"
	"io"
	"net/http"
	"strconv"
	"time"

	"mbrtopo/internal/index"
	"mbrtopo/internal/rtree"
	"mbrtopo/internal/wal"
)

// handleReplicate serves GET /v1/replicate?index=N[&gen=G&seq=S]: one
// long-lived response carrying the frame stream of replframe.go — a
// hello, then (in bootstrap mode) the current flat snapshot, then a
// live tail of WAL records, with rotate frames marking checkpoints and
// heartbeats keeping an idle stream verifiably alive.
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
	resume := resumable && reqGen == gen && reqSeq <= seq
	var snap *rtree.FlatImage
	if !resume {
		snap, err = index.PinFlat(inst.ReadIndex(), gen)
		if err != nil {
			d.mu.Unlock()
			writeJSONError(w, http.StatusInternalServerError, "snapshotting index: "+err.Error())
			return
		}
	}
	tail, err := wal.OpenTail(d.walPath(gen))
	d.mu.Unlock()
	if err != nil {
		writeJSONError(w, http.StatusInternalServerError, "opening wal tail: "+err.Error())
		return
	}
	defer func() { _ = tail.Close() }()
	h := hello{bootstrap: !resume, gen: gen, seq: reqSeq}
	if !resume {
		h.seq, h.snapSize = seq, uint64(snap.Size())
	}

	s.metrics.replStreams.Add(1)
	defer s.metrics.replStreams.Add(-1)
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Cache-Control", "no-cache")
	flusher, _ := w.(http.Flusher)
	cw := &shippedWriter{w: w, m: s.metrics}

	if err := writeFrame(cw, frameHello, encodeHello(h)); err != nil {
		return
	}
	if !resume {
		chunks := &chunkWriter{w: cw, buf: make([]byte, 0, snapChunkSize)}
		if err := snap.Encode(chunks); err != nil || chunks.flush() != nil {
			return
		}
		if err := writeFrame(cw, frameSnapEnd, nil); err != nil {
			return
		}
		s.metrics.replSnapshotsShipped.Add(1)
	}
	if flusher != nil {
		flusher.Flush()
	}
	s.streamRecords(r.Context(), inst, cw, flusher, &tail, gen, h.seq)
}

// chunkWriter cuts the image it is written into snapChunk frames of
// snapChunkSize bytes, the last one shorter.
type chunkWriter struct {
	w   io.Writer
	buf []byte
}

func (c *chunkWriter) Write(p []byte) (int, error) {
	n := len(p)
	for len(p) > 0 {
		k := min(len(p), snapChunkSize-len(c.buf))
		c.buf, p = append(c.buf, p[:k]...), p[k:]
		if len(c.buf) == snapChunkSize {
			if err := c.flush(); err != nil {
				return n - len(p), err
			}
		}
	}
	return n, nil
}

// flush ships what is buffered as one frame.
func (c *chunkWriter) flush() error {
	if len(c.buf) == 0 {
		return nil
	}
	err := writeFrame(c.w, frameSnapChunk, c.buf)
	c.buf = c.buf[:0]
	return err
}

// streamRecords ships the live WAL tail: every record after startSeq
// of generation gen, rotate frames at checkpoints, heartbeats while
// idle. It returns when the client goes away, the index degrades, or
// the stream falls so far behind that a generation it needs was
// already checkpointed away (the follower then reconnects and
// bootstraps afresh). *tailp is owned by the caller's defer.
func (s *Server) streamRecords(ctx context.Context, inst *Instance, w io.Writer, flusher http.Flusher, tailp **wal.Tail, gen, startSeq uint64) {
	d := inst.dur
	curGen := gen
	frameIdx := uint64(0) // frames read from the current generation's file
	skip := startSeq      // leading frames the hello position already covers

	drain := func() error {
		for {
			rec, ok, err := (*tailp).Next()
			if err != nil {
				return err
			}
			if !ok {
				return nil
			}
			frameIdx++
			if frameIdx <= skip {
				continue
			}
			if err := writeFrame(w, frameRecord,
				encodeRecord(curGen, frameIdx, wal.MarshalRecord(rec))); err != nil {
				return err
			}
			s.metrics.replRecordsShipped.Add(1)
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
		if flusher != nil {
			flusher.Flush()
		}
		if liveGen != curGen {
			// A checkpoint rotated the log. The old generation is final
			// — checkpoint closes it (flushing every reservation) before
			// the new position becomes observable — so draining to EOF
			// ships its complete record sequence even though the file is
			// already unlinked (the tail holds its own descriptor).
			if err := drain(); err != nil {
				return
			}
			_ = (*tailp).Close()
			curGen++
			frameIdx, skip = 0, 0
			if err := writeFrame(w, frameRotate, encodePosition(curGen, 0)); err != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
			next, err := wal.OpenTail(d.walPath(curGen))
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
			if err := writeFrame(w, frameHeartbeat, encodePosition(curGen, liveSeq)); err != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
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
