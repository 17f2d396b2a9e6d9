package wal

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"
)

// This file implements group commit: concurrent appenders coalesce
// their records into one buffered write and one fsync per batch
// (leader/follower).
//
// An append is split in two:
//
//   - Reserve encodes the records into the currently open batch under
//     a short formation lock (gmu). This fixes the on-disk order —
//     replay order equals reservation order — without doing any IO,
//     so callers can reserve while holding their own application lock
//     and release it before waiting.
//   - Ticket.Wait makes the batch durable. The first waiter claims
//     batch leadership with a compare-and-swap: the winner takes the
//     file lock, seals the batch (new reservations start the next
//     one), writes the whole buffer at once, applies the fsync
//     policy, and wakes the followers. Losers park on the batch's
//     done channel and never touch the file lock, so they are free to
//     reserve into the next batch the moment this one commits. That
//     keeps the pipeline full: while a leader is inside write+fsync,
//     every other appender accumulates into the next batch, whose
//     leader is already queued on the file lock.
//
// While the leader is inside write+fsync it holds only the file lock,
// so the next batch fills up concurrently; its leader flushes it as
// soon as the file lock frees. At most one sealed-but-unflushed batch
// exists at any time (sealing happens under the file lock, immediately
// followed by the flush), so batches reach the disk strictly in
// formation order.

var errClosed = errors.New("wal: log is closed")

// batch is one group of reserved records sharing a write and fsync.
type batch struct {
	buf    []byte // encoded frames in reservation order (guarded by gmu until sealed)
	count  int
	sealed bool        // no further reservations; set under gmu by the leader
	lead   atomic.Bool // claimed by the one waiter that drives the flush
	done   chan struct{}
	err    error // set before done is closed
}

// Ticket is a reservation handle: the records' position in the log is
// fixed, Wait makes them durable.
type Ticket struct {
	l   *Log
	b   *batch
	err error // immediate outcome when there is nothing to wait for
}

// GroupStats counts group-commit activity.
type GroupStats struct {
	// Commits is the number of durable batch flushes (one write + one
	// policy fsync each).
	Commits uint64
	// Records is the number of records across those flushes, so
	// Records/Commits is the achieved amortization.
	Records uint64
	// MaxBatch is the largest single flush, in records.
	MaxBatch uint64
	// CommitTime is the cumulative wall time spent in write+fsync.
	CommitTime time.Duration
}

// Reserve encodes the records into the open batch, fixing their order
// in the log, and returns a ticket whose Wait makes them durable.
func (l *Log) Reserve(recs ...Record) *Ticket {
	if len(recs) == 0 {
		return &Ticket{}
	}
	l.gmu.Lock()
	if l.closed {
		l.gmu.Unlock()
		return &Ticket{err: errClosed}
	}
	if l.cur == nil || l.cur.sealed {
		l.cur = &batch{done: make(chan struct{})}
	}
	b := l.cur
	for _, rec := range recs {
		b.buf = appendRecord(b.buf, rec)
	}
	b.count += len(recs)
	l.gmu.Unlock()
	return &Ticket{l: l, b: b}
}

// Wait blocks until the ticket's batch is durable (per the log's
// fsync policy) and returns the batch outcome. The first waiter per
// batch leads the flush; the rest piggyback on it.
func (t *Ticket) Wait() error {
	if t.b == nil {
		return t.err
	}
	if !t.b.lead.CompareAndSwap(false, true) {
		// A leader has this batch: park off the lock path.
		<-t.b.done
		return t.b.err
	}
	l := t.l
	// Give the batch a beat to fill before sealing it: appenders woken
	// by the previous commit are re-reserving right now, and folding
	// them into this flush is the whole point. Yield while the batch
	// is still growing, a bounded number of times; when the log is
	// uncontended the count is stable after one yield and the cost is
	// a few hundred nanoseconds.
	prev := -1
	for i := 0; i < 8; i++ {
		l.gmu.Lock()
		n := t.b.count
		l.gmu.Unlock()
		if n == prev {
			break
		}
		prev = n
		runtime.Gosched()
	}
	l.mu.Lock()
	l.flushBatchLocked(t.b)
	l.mu.Unlock()
	return t.b.err
}

// Flush commits the open batch, if any. It returns when every record
// reserved before the call is durable per the fsync policy.
func (l *Log) Flush() error {
	l.gmu.Lock()
	b := l.cur
	l.gmu.Unlock()
	if b == nil || b.sealed {
		return nil
	}
	return (&Ticket{l: l, b: b}).Wait()
}

// GroupStats returns the group-commit counters.
func (l *Log) GroupStats() GroupStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.gstats
}

// flushBatchLocked is the leader path: seal the batch, write its
// buffer in one call, apply the fsync policy, record stats, and wake
// the followers. Caller holds l.mu.
func (l *Log) flushBatchLocked(b *batch) {
	defer close(b.done)
	l.gmu.Lock()
	b.sealed = true
	if l.cur == b {
		l.cur = nil
	}
	l.gmu.Unlock()
	if l.f == nil {
		b.err = errClosed
		return
	}
	start := time.Now()
	if l.opts.WriteHook != nil {
		if err := l.opts.WriteHook(l.size, len(b.buf)); err != nil {
			b.err = fmt.Errorf("wal: appending batch: %w", err)
			return
		}
	}
	if _, err := l.f.WriteAt(b.buf, l.size); err != nil {
		b.err = fmt.Errorf("wal: appending batch: %w", err)
		return
	}
	l.size += int64(len(b.buf))
	l.records += uint64(b.count)
	if l.opts.Policy == SyncAlways {
		if err := l.f.Sync(); err != nil {
			b.err = err
			return
		}
	}
	l.gstats.Commits++
	l.gstats.Records += uint64(b.count)
	if uint64(b.count) > l.gstats.MaxBatch {
		l.gstats.MaxBatch = uint64(b.count)
	}
	l.gstats.CommitTime += time.Since(start)
}
