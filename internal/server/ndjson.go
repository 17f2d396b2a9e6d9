package server

import (
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"sync"
	"time"

	"mbrtopo/internal/geom"
	"mbrtopo/internal/query"
)

// The flush contract of every finite NDJSON stream (/v1/query, its
// cached replay, /v1/join). Rendered lines collect in a pooled buffer
// and reach the ResponseWriter only when
//
//	(a) flushBytes are pending,
//	(b) a clocked line is appended flushAge or more after the oldest
//	    pending one — so a sparse, long-running join still delivers as
//	    it goes, without a timer goroutine or a lock — where a pair line
//	    is always clocked and a match line when it is the first its leaf
//	    delivered (query.Match.First), or
//	(c) the stream ends.
//
// (a) and (b) also call Flush, holding the connection (heldConn) so
// that the write and the Flush leave in one socket write. A complete
// stream that (a) and (b) never wrote — an answer under flushBytes none
// of whose lines waited flushAge, or a cache hit under flushBytes —
// declares its length and goes out in one Write as a sized body, so
// net/http sends it with the headers and no chunk framing. A stream
// that already wrote, or that was cut short, stays chunked. The end's
// write is flushed under a hold when it is over smallEnd; a shorter
// one goes without a Flush, and net/http sends it with the headers or
// the chunk terminator in one socket write when the handler returns.
// A pair line therefore waits for at most flushAge plus the gap to the
// line after it, a match line for at most flushAge plus the gap to the
// next leaf's first line (or, either, to the end of the stream).
const (
	flushBytes = 32 << 10
	flushAge   = time.Millisecond
)

// smallEnd is the longest end of a stream that net/http's 4 KiB
// connection buffer holds whole with the headers, or with the chunk
// framing and terminator, and so sends in one socket write when the
// handler returns; a longer one it would split.
const smallEnd = 4<<10 - 512

// maxCachedBytes bounds one result-cache entry. A larger answer streams
// as usual and is not stored, so a single disjoint answer times
// Config.CacheSize cannot pin memory.
const maxCachedBytes = 1 << 20

// errNonFinite stops a stream that reached a NaN or infinite
// coordinate, which JSON cannot carry (json.Marshal refuses it too).
var errNonFinite = errors.New("server: non-finite coordinate has no JSON encoding")

// lineWriter renders match and pair lines by hand — byte for byte what
// json.Marshal gives for QueryLine and JoinLine, which remain the wire
// definition and FuzzLineEncode's oracle — and batches them under the
// flush contract above. One goroutine at a time may use it.
type lineWriter struct {
	w       http.ResponseWriter
	flusher http.Flusher // nil when w cannot flush
	conn    *heldConn    // nil off a held connection: hold and send do nothing
	metrics *Metrics
	buf     []byte // rendered lines not yet handed to w
	sent    bool   // some bytes were handed to w, so the body is chunked
	err     error  // first failure; every later append reports false

	// The stream's clock is the time since it started: one monotonic
	// reading per clocked line, where time.Now would read the wall clock
	// too. A line appended between readings is dated to the last one,
	// which can only make it look older than it is.
	start  time.Time
	since  func(time.Time) time.Duration // time.Since; the flush-contract tests step it by hand
	now    time.Duration                 // the last reading
	oldest time.Duration                 // when buf's first line was appended

	// keeping is set while the stream is still a candidate for the
	// result cache; kept holds the lines already handed to w.
	keeping bool
	kept    []byte
}

var lineWriters = sync.Pool{New: func() any {
	// Room for the line that crosses flushBytes and for the trailer.
	return &lineWriter{buf: make([]byte, 0, flushBytes+4096)}
}}

// newLineWriter sets the NDJSON headers on w and returns a writer for
// the body of the response to r. With keeping set, the writer keeps a
// copy of the lines for cacheCopy. The caller must call end exactly
// once.
func (s *Server) newLineWriter(w http.ResponseWriter, r *http.Request, keeping bool) *lineWriter {
	lw := lineWriters.Get().(*lineWriter)
	*lw = lineWriter{w: w, flusher: ndjsonHeaders(w), conn: connOf(r), metrics: s.metrics, buf: lw.buf[:0],
		start: time.Now(), since: time.Since, keeping: keeping}
	return lw
}

// match appends one /v1/query match line, reporting whether the
// producer should carry on.
func (lw *lineWriter) match(m query.Match) bool {
	if lw.err == nil && !wireable(m.Rect, m.Text) {
		lw.err = errNonFinite
	}
	if lw.err != nil {
		return false
	}
	pending := len(lw.buf)
	lw.buf = appendMatchLine(lw.buf, m)
	return lw.appended(pending, m.First)
}

// pair appends one /v1/join pair line, reporting whether the producer
// should carry on.
func (lw *lineWriter) pair(p query.JoinPair) bool {
	if lw.err == nil && !(wireable(p.LeftRect, p.LeftText) && wireable(p.RightRect, p.RightText)) {
		lw.err = errNonFinite
	}
	if lw.err != nil {
		return false
	}
	pending := len(lw.buf)
	lw.buf = appendPairLine(lw.buf, p)
	return lw.appended(pending, true)
}

// wireable reports whether JSON can carry r. A rectangle that arrives
// with its wire text was finite when the text was rendered.
func wireable(r geom.Rect, text string) bool { return text != "" || r.Finite() }

// appended applies rules (a) and (b) after a line went into buf, which
// held pending bytes before it; a clocked line reads the clock first.
func (lw *lineWriter) appended(pending int, clocked bool) bool {
	if clocked {
		lw.now = lw.since(lw.start)
	}
	if pending == 0 {
		lw.oldest = lw.now
	}
	if len(lw.buf) < flushBytes && lw.now-lw.oldest < flushAge {
		return true
	}
	ok := lw.flush(lw.buf)
	lw.buf = lw.buf[:0]
	return ok
}

// flush writes p and flushes it to the connection, which it holds
// meanwhile: p, and the headers when they have not gone yet, leave in
// one socket write. A failed send is the stream's failure.
func (lw *lineWriter) flush(p []byte) bool {
	lw.conn.hold()
	if lw.write(p) && lw.flusher != nil {
		lw.flusher.Flush()
	}
	if err := lw.conn.send(); lw.err == nil {
		lw.err = err
	}
	return lw.err == nil
}

// write hands p to the ResponseWriter, keeping the cache copy first.
func (lw *lineWriter) write(p []byte) bool {
	if lw.err != nil {
		return false
	}
	if len(p) == 0 {
		return true
	}
	lw.keep(p)
	lw.metrics.streamFlushes.Add(1)
	lw.sent = true
	_, lw.err = lw.w.Write(p)
	return lw.err == nil
}

// keep adds p to the cache copy, or gives the copy up at maxCachedBytes.
func (lw *lineWriter) keep(p []byte) {
	switch {
	case !lw.keeping:
	case len(lw.kept)+len(p) > maxCachedBytes:
		lw.metrics.cacheOversize.Add(1)
		lw.keeping, lw.kept = false, nil
	default:
		lw.kept = append(lw.kept, p...)
	}
}

// cacheCopy returns every line appended so far in a slice the caller
// owns, or false when the writer was not asked to keep them or they
// outgrew maxCachedBytes. Lines appended afterwards are not kept.
func (lw *lineWriter) cacheCopy() ([]byte, bool) {
	lw.keep(lw.buf)
	kept, ok := lw.kept, lw.keeping
	lw.keeping, lw.kept = false, nil
	return kept, ok
}

// replay sends the lines an earlier stream stored (a cache hit); it
// must precede every append. Lines under flushBytes join the pending
// buffer, so the hit ends as the sized single Write its miss made; a
// larger answer goes out as stored, uncopied and unheld, so neither
// pooled buffer grows to hold a whole cache entry.
func (lw *lineWriter) replay(lines []byte) {
	if len(lines) >= flushBytes {
		lw.write(lines)
		return
	}
	lw.buf = append(lw.buf, lines...)
}

// endQuery ends a /v1/query stream with t as its last line, or, when
// t is nil, as cut short.
func (lw *lineWriter) endQuery(t *QueryLine) {
	if t != nil && lw.err == nil {
		lw.buf = appendQueryTrailer(lw.buf, t)
	}
	lw.end(t != nil)
}

// endJoin ends a /v1/join stream with t as its last line, or, when t
// is nil, as cut short.
func (lw *lineWriter) endJoin(t *JoinLine) {
	if t != nil && lw.err == nil {
		lw.buf = appendJoinTrailer(lw.buf, t)
	}
	lw.end(t != nil)
}

// end finishes the stream under rule (c) and recycles lw: the pending
// lines, with the trailer endQuery or endJoin rendered after them, go
// out in one write: a sized body when the stream is complete and
// nothing went out before, else the last chunk. Over smallEnd it is
// flushed under a hold, so that it leaves in one socket write. A stream
// that is not complete was cut short (client gone, deadline) and counts
// as a disconnect, as does one whose last write fails.
func (lw *lineWriter) end(complete bool) {
	lw.keeping, lw.kept = false, nil // a trailer is never part of a cached answer
	if complete && !lw.sent && lw.err == nil {
		lw.w.Header()["Content-Length"] = []string{strconv.Itoa(len(lw.buf))}
	}
	var ok bool
	if len(lw.buf) > smallEnd {
		ok = lw.flush(lw.buf)
	} else {
		ok = lw.write(lw.buf)
	}
	if !ok || !complete {
		lw.metrics.disconnects.Add(1)
	}
	*lw = lineWriter{buf: lw.buf[:0]}
	lineWriters.Put(lw)
}

// appendMatchLine renders {"oid":…,"rect":[…]} and a newline.
func appendMatchLine(b []byte, m query.Match) []byte {
	b = append(b, `{"oid":`...)
	b = strconv.AppendUint(b, m.OID, 10)
	b = append(b, `,"rect":`...)
	b = appendRect(b, m.Rect, m.Text)
	return append(b, '}', '\n')
}

// appendPairLine renders one JoinLine pair and a newline.
func appendPairLine(b []byte, p query.JoinPair) []byte {
	b = append(b, `{"left_oid":`...)
	b = strconv.AppendUint(b, p.LeftOID, 10)
	b = append(b, `,"right_oid":`...)
	b = strconv.AppendUint(b, p.RightOID, 10)
	b = append(b, `,"left_rect":`...)
	b = appendRect(b, p.LeftRect, p.LeftText)
	b = append(b, `,"right_rect":`...)
	b = appendRect(b, p.RightRect, p.RightText)
	return append(b, '}', '\n')
}

// appendQueryTrailer renders a /v1/query stream's last line, a
// QueryLine whose only fields set are Stats and Error, and a newline.
func appendQueryTrailer(b []byte, t *QueryLine) []byte {
	b = append(b, '{')
	if s := t.Stats; s != nil {
		b = append(b, `"stats":{"node_accesses":`...)
		b = strconv.AppendUint(b, s.NodeAccesses, 10)
		b = append(b, `,"candidates":`...)
		b = strconv.AppendInt(b, int64(s.Candidates), 10)
		if s.Explain != "" {
			b = append(b, `,"explain":`...)
			b = appendString(b, s.Explain)
		}
		b = append(b, '}')
	}
	return appendTrailerError(b, t.Stats != nil, t.Error)
}

// appendJoinTrailer renders a /v1/join stream's last line, a JoinLine
// whose only fields set are Stats and Error, and a newline.
func appendJoinTrailer(b []byte, t *JoinLine) []byte {
	b = append(b, '{')
	if s := t.Stats; s != nil {
		b = append(b, `"stats":{"pairs":`...)
		b = strconv.AppendInt(b, int64(s.Pairs), 10)
		b = append(b, `,"node_accesses":`...)
		b = strconv.AppendUint(b, s.NodeAccesses, 10)
		b = append(b, '}')
	}
	return appendTrailerError(b, t.Stats != nil, t.Error)
}

// appendTrailerError closes a trailer: its error field when msg is set
// (after a comma when the stats field precedes it), the closing brace
// and a newline.
func appendTrailerError(b []byte, afterStats bool, msg string) []byte {
	if msg != "" {
		if afterStats {
			b = append(b, ',')
		}
		b = append(b, `"error":`...)
		b = appendString(b, msg)
	}
	return append(b, '}', '\n')
}

// appendString renders s as json.Marshal renders a string. Only the
// explain and error texts of a trailer take this path.
func appendString(b []byte, s string) []byte {
	q, _ := json.Marshal(s) // a string always marshals
	return append(b, q...)
}

// appendRect copies the rectangle's wire text when the leaf it came
// from had it rendered, and renders it otherwise; geom.Rect.AppendWire
// wrote the text too, so the bytes are the same either way.
func appendRect(b []byte, r geom.Rect, text string) []byte {
	if text != "" {
		return append(b, text...)
	}
	return r.AppendWire(b)
}
