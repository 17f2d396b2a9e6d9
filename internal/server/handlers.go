package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"time"

	"mbrtopo/internal/geom"
	"mbrtopo/internal/query"
	"mbrtopo/internal/rtree"
	"mbrtopo/internal/topo"
)

// maxBodyBytes bounds request bodies; queries and mutations are tiny.
const maxBodyBytes = 1 << 20

// maxJoinPairs bounds a /v1/join answer that asks for no limit. The
// join reaching it ends with joinCapMessage in its trailer instead of
// stats, so a cut answer never reads as a whole one; a client that
// wants more pairs asks for them with an explicit limit, which is
// honoured whatever its size.
const maxJoinPairs = 1 << 16

// joinCapMessage is the trailer error of a join cut at maxJoinPairs.
var joinCapMessage = fmt.Sprintf("join: stopped after %d pairs, the most an answer without a limit carries; ask for more with an explicit limit", maxJoinPairs)

// maxTimeout caps client-requested deadlines.
const maxTimeout = 60 * time.Second

// maxKNN bounds k on /v1/knn: the answer is built whole in memory
// before it is written, so k bounds what one request may hold.
const maxKNN = 10000

// maxWatchBuffer bounds a /v1/watch stream's event buffer, which is
// allocated whole when the subscription starts: 16 384 events of 64 B
// are 1 MiB a stream, 256 MiB across the default 256 watch slots.
const maxWatchBuffer = 16384

// maxBulkBytes bounds /v1/bulk bodies, which carry whole datasets
// (256 MiB ≈ tens of millions of NDJSON rectangles).
const maxBulkBytes = 1 << 28

// writeJSON marshals before it sends the status, so a body
// encoding/json refuses (a NaN, say) becomes a 500 that says so instead
// of the intended status with nothing behind it.
func writeJSON(w http.ResponseWriter, code int, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		code = http.StatusInternalServerError
		body, _ = json.Marshal(ErrorResponse{Error: "encoding the response: " + err.Error()})
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_, _ = w.Write(append(body, '\n'))
}

func writeJSONError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, ErrorResponse{Error: msg})
}

// ndjsonHeaders sets the headers every NDJSON stream shares —
// Content-Type plus Cache-Control: no-cache so intermediaries pass
// lines through instead of buffering them — and returns the writer's
// flusher (nil when the writer cannot flush). /v1/watch, a live tail,
// flushes after every event; the finite streams batch under
// lineWriter's flush contract (ndjson.go). The values are shared and
// must not be written through: assigning them, unlike Header.Set,
// allocates nothing.
func ndjsonHeaders(w http.ResponseWriter) http.Flusher {
	w.Header()["Content-Type"], w.Header()["Cache-Control"] = ndjsonType, noCache
	flusher, _ := w.(http.Flusher)
	return flusher
}

var ndjsonType, noCache = []string{"application/x-ndjson"}, []string{"no-cache"}

// servingInstance resolves a request's index and gates on health: an
// index whose recovery failed or that detected corruption answers 503
// on its routes instead of serving garbage (or crashing the process).
func (s *Server) servingInstance(w http.ResponseWriter, name string) (*Instance, bool) {
	inst, err := s.instance(name)
	if err != nil {
		writeJSONError(w, http.StatusNotFound, err.Error())
		return nil, false
	}
	if !inst.Healthy() {
		writeJSONError(w, http.StatusServiceUnavailable,
			"index "+inst.Name+" is unhealthy: "+inst.FailReason())
		return nil, false
	}
	if inst.ReadIndex() == nil {
		// A follower shell that has not bootstrapped from its primary
		// yet (or a failed recovery) has nothing to serve from.
		writeJSONError(w, http.StatusServiceUnavailable,
			"index "+inst.Name+" has no data to serve yet")
		return nil, false
	}
	return inst, true
}

// handleQuery streams a window query as NDJSON: one QueryLine per
// match in traversal order, then a trailing stats line. The stream is
// context-aware end to end — a client disconnect or deadline stops the
// tree traversal within one page read, and the pages read up to that
// point are still folded into /metrics. With Relations2/Ref2 the query
// is a two-term conjunction; with caching enabled, a repeat of any
// query shape whose answer no commit since could change replays the
// stored answer without touching the tree (cache.go says what a hit
// holds).
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req QueryRequest
	if err := readBody(w, r.Body, maxBodyBytes, req.read, req.decode); err != nil {
		writeJSONError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	inst, ok := s.servingInstance(w, req.Index)
	if !ok {
		return
	}
	rels, err := ParseRelationSet(req.Relations)
	if err != nil {
		writeJSONError(w, http.StatusBadRequest, err.Error())
		return
	}
	ref, err := RectFromWire(req.Ref)
	if err != nil {
		writeJSONError(w, http.StatusBadRequest, err.Error())
		return
	}
	// The optional second conjunction term: both halves or neither.
	conj := len(req.Relations2) > 0 || len(req.Ref2) > 0
	var rels2 topo.Set
	var ref2 geom.Rect
	if conj {
		if len(req.Relations2) == 0 || len(req.Ref2) == 0 {
			writeJSONError(w, http.StatusBadRequest, "conjunction needs both relations2 and ref2")
			return
		}
		if rels2, err = ParseRelationSet(req.Relations2); err != nil {
			writeJSONError(w, http.StatusBadRequest, err.Error())
			return
		}
		if ref2, err = RectFromWire(req.Ref2); err != nil {
			writeJSONError(w, http.StatusBadRequest, err.Error())
			return
		}
	}
	// Cache lookup. A miss registers its fill before ReadProc below
	// pins the tree, so a commit that lands after the pin marks it.
	var fill *cacheEntry
	if s.cache != nil {
		var res *cachedResult
		key := cacheKey{index: inst.Name, rels: rels, ref: ref, conj: conj, rels2: rels2, ref2: ref2, limit: req.Limit}
		if res, fill = s.cache.lookup(key); res != nil {
			s.writeCachedQuery(w, r, req, res)
			return
		}
	}

	// A miss alone runs under the deadline: a hit replays stored bytes.
	ctx := r.Context()
	if d := s.queryTimeout(req.TimeoutMS); d > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, d)
		defer cancel()
	}
	// With caching on, the writer keeps a copy of the match lines as it
	// hands them over, so a hit later replays the exact bytes.
	lw := s.newLineWriter(w, r, s.cache != nil)
	proc := inst.ReadProc()
	var stats query.Stats
	if conj {
		stats, err = proc.StreamConjunctionLeaves(ctx, rels, ref, rels2, ref2, req.Limit, lw.leaf)
	} else {
		stats, err = proc.StreamLeaves(ctx, rels, ref, req.Limit, lw.leaf)
	}
	// Fold whatever the traversal read — completed, cancelled, or
	// failed — so /metrics always equals the sum of per-request stats.
	s.metrics.FoldQuery(stats)
	var trailer *QueryLine
	var stored *cachedResult
	switch {
	case lw.err != nil || ctx.Err() != nil:
		// The client is gone (or the deadline fired mid-stream): no
		// stats line, and end counts the disconnect.
	case err != nil:
		trailer = &QueryLine{Error: err.Error()}
	default:
		// Only a cleanly completed answer is stored — a truncated or
		// failed stream must never be replayed as the full result.
		if lines, ok := lw.cacheCopy(); ok {
			stored = &cachedResult{lines: lines, stats: stats}
		}
		ws := StatsToWire(stats)
		if req.Explain {
			ws.Explain = stats.Explain
		}
		trailer = &QueryLine{Stats: &ws}
	}
	if fill != nil {
		s.cache.put(fill, stored)
	}
	lw.endQuery(trailer)
}

// writeCachedQuery replays a cached answer: the match lines in the
// order of the traversal that produced them, and its stats (explain,
// which is opt-in, additionally reports the hit).
func (s *Server) writeCachedQuery(w http.ResponseWriter, r *http.Request, req QueryRequest, res *cachedResult) {
	lw := s.newLineWriter(w, r, false)
	lw.replay(res.lines)
	ws := StatsToWire(res.stats)
	if req.Explain {
		ws.Explain = "cache=hit " + res.stats.Explain
	}
	lw.endQuery(&QueryLine{Stats: &ws})
}

// handleJoin streams a topological spatial join of two served indexes
// as NDJSON: one JoinLine per result pair (unspecified order), then a
// trailing stats line. The join runs the plane-sweep engine (on a
// worker pool only when GOMAXPROCS > 1) over one snapshot of each
// tree, so concurrent writers never perturb a running join. Unsupported
// index pairs (R+-trees partition space) are rejected with 400 before
// the stream starts; limits, deadlines, and client disconnects stop the
// traversal within one page read, and whatever was read is still
// folded into /metrics.
func (s *Server) handleJoin(w http.ResponseWriter, r *http.Request) {
	var req JoinRequest
	if err := readBody(w, r.Body, maxBodyBytes, req.read, req.decode); err != nil {
		writeJSONError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	li, ok := s.servingInstance(w, req.Left)
	if !ok {
		return
	}
	ri := li
	if req.Right != "" {
		if ri, ok = s.servingInstance(w, req.Right); !ok {
			return
		}
	}
	rels, err := ParseRelationSet(req.Relations)
	if err != nil {
		writeJSONError(w, http.StatusBadRequest, err.Error())
		return
	}
	// One read for a self-join: two could straddle a replica bootstrap.
	lidx := li.ReadIndex()
	ridx := lidx
	if ri != li {
		ridx = ri.ReadIndex()
	}
	if err := query.CanJoin(lidx, ridx); err != nil {
		writeJSONError(w, http.StatusBadRequest, err.Error())
		return
	}
	ctx := r.Context()
	if d := s.queryTimeout(req.TimeoutMS); d > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, d)
		defer cancel()
	}
	s.metrics.joinInFlight.Add(1)
	defer s.metrics.joinInFlight.Add(-1)

	lw := s.newLineWriter(w, r, false)
	start := time.Now()
	pairs := 0
	opts := query.JoinOptions{
		NonContiguous: req.NonContiguous,
		KeepSelfPairs: req.KeepSelfPairs,
	}
	capped := false
	stats, err := query.JoinStream(ctx, lidx, ridx, rels, opts, func(p query.JoinPair) bool {
		if req.Limit <= 0 && pairs == maxJoinPairs {
			capped = true
			return false
		}
		if !lw.pair(p) {
			return false
		}
		pairs++
		return req.Limit <= 0 || pairs < req.Limit
	})
	// Fold whatever the traversal read — completed, cancelled, or
	// failed — so /metrics always equals the sum of per-request stats.
	s.metrics.FoldJoin(pairs, stats, time.Since(start))
	var trailer *JoinLine
	switch {
	case lw.err != nil || ctx.Err() != nil:
		// Cut short: no stats line, and end counts the disconnect.
	case err != nil:
		trailer = &JoinLine{Error: err.Error()}
	case capped:
		trailer = &JoinLine{Error: joinCapMessage}
	default:
		trailer = &JoinLine{Stats: &JoinWireStats{Pairs: pairs, NodeAccesses: stats.NodeAccesses}}
	}
	lw.endJoin(trailer)
}

// handleKNN answers GET /v1/knn?index=name&k=5&x=10&y=20.
func (s *Server) handleKNN(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	inst, ok := s.servingInstance(w, q.Get("index"))
	if !ok {
		return
	}
	k := 1
	if v := q.Get("k"); v != "" {
		var err error
		k, err = strconv.Atoi(v)
		if err != nil || k <= 0 || k > maxKNN {
			writeJSONError(w, http.StatusBadRequest, "k must be a positive integer, at most "+strconv.Itoa(maxKNN))
			return
		}
	}
	// ParseFloat accepts NaN and the infinities, and a search by
	// distance from such a point has no answer.
	var xy [2]float64
	for i, name := range [...]string{"x", "y"} {
		v, err := strconv.ParseFloat(q.Get(name), 64)
		if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
			writeJSONError(w, http.StatusBadRequest, name+" must be a finite number")
			return
		}
		xy[i] = v
	}
	ctx := r.Context()
	if d := s.queryTimeout(0); d > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, d)
		defer cancel()
	}
	nn, ts, err := inst.ReadIndex().NearestCtx(ctx, geom.Point{X: xy[0], Y: xy[1]}, k)
	// Fold whatever the traversal read, also when it was cut short.
	s.metrics.FoldTraversal(ts)
	if err != nil {
		// A search cut by the deadline holds the neighbours found so
		// far, which are not the k nearest: refuse, never answer them.
		if ctx.Err() != nil {
			writeJSONError(w, http.StatusServiceUnavailable, err.Error())
			return
		}
		writeJSONError(w, http.StatusInternalServerError, err.Error())
		return
	}
	// Answers depend on live index state; intermediaries must not
	// serve them stale.
	w.Header().Set("Cache-Control", "no-cache")
	body, ok := appendKNNBody(make([]byte, 0, 64+112*len(nn)), nn, ts.NodeAccesses)
	if !ok {
		// encoding/json refuses the number too: writeJSON answers the
		// 500 that says so.
		resp := KNNResponse{Neighbours: make([]KNNNeighbour, len(nn)), NodeAccesses: ts.NodeAccesses}
		for i, nb := range nn {
			resp.Neighbours[i] = KNNNeighbour{OID: nb.OID, Rect: RectToWire(nb.Rect), Dist: nb.Dist}
		}
		writeJSON(w, http.StatusOK, resp)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(body)
}

// appendKNNBody renders the KNNResponse of nn and accesses as
// json.Marshal does, and a newline. It reports false, having rendered
// part of it, when a rectangle or a distance is not finite: JSON has no
// form for it.
func appendKNNBody(b []byte, nn []rtree.Neighbour, accesses uint64) ([]byte, bool) {
	b = append(b, `{"neighbours":[`...)
	for i, nb := range nn {
		if !nb.Rect.Finite() || nb.Dist-nb.Dist != 0 {
			return b, false
		}
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"oid":`...)
		b = strconv.AppendUint(b, nb.OID, 10)
		b = append(b, `,"rect":`...)
		b = nb.Rect.AppendWire(b)
		b = append(b, `,"dist":`...)
		b = geom.AppendWireFloat(b, nb.Dist)
		b = append(b, '}')
	}
	b = append(b, `],"node_accesses":`...)
	b = strconv.AppendUint(b, accesses, 10)
	return append(b, '}', '\n'), true
}

// handleInsert stores one rectangle. On a durable index the insert is
// appended to the WAL before the 200 is sent.
func (s *Server) handleInsert(w http.ResponseWriter, r *http.Request) {
	s.handleMutation(w, r, (*Instance).Insert)
}

// handleDelete removes one rectangle/id entry, WAL-logged like insert.
func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	s.handleMutation(w, r, (*Instance).Delete)
}

// writeMutationError answers a failed mutation: 404 for a delete that
// found nothing, 422 for an insert an R+-tree cannot place
// (rtree.ErrUnsplittable: the input is at fault and the index is
// unchanged), 503 when the WAL append failed — the mutation is not
// durable and the index has degraded — and 500 otherwise.
func writeMutationError(w http.ResponseWriter, inst *Instance, err error) {
	code := http.StatusInternalServerError
	switch {
	case errors.Is(err, rtree.ErrNotFound):
		code = http.StatusNotFound
	case errors.Is(err, rtree.ErrUnsplittable):
		code = http.StatusUnprocessableEntity
	case !inst.Healthy():
		code = http.StatusServiceUnavailable
	}
	writeJSONError(w, code, err.Error())
}

func (s *Server) handleMutation(w http.ResponseWriter, r *http.Request, op func(*Instance, geom.Rect, uint64) error) {
	if s.isFollower() {
		s.rejectFollowerWrite(w, "read replica: mutations go to the primary")
		return
	}
	var req UpdateRequest
	if err := readBody(w, r.Body, maxBodyBytes, req.read, req.decode); err != nil {
		writeJSONError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	inst, ok := s.servingInstance(w, req.Index)
	if !ok {
		return
	}
	rect, err := RectFromWire(req.Rect)
	if err != nil {
		writeJSONError(w, http.StatusBadRequest, err.Error())
		return
	}
	if err := op(inst, rect, req.OID); err != nil {
		writeMutationError(w, inst, err)
		return
	}
	writeJSON(w, http.StatusOK, UpdateResponse{OK: true, Objects: inst.ReadIndex().Len()})
}

// handleBulk loads a batch of rectangles streamed as NDJSON (one
// BulkLine per line) into the index named by ?index=. The batch is
// applied as one atomic index mutation — Sort-Tile-Recursive packed
// when the tree is empty — and, on a durable index, logged as one
// contiguous WAL run with a single group-committed flush. Queries
// running concurrently see none or all of the batch.
func (s *Server) handleBulk(w http.ResponseWriter, r *http.Request) {
	if s.isFollower() {
		s.rejectFollowerWrite(w, "read replica: mutations go to the primary")
		return
	}
	inst, ok := s.servingInstance(w, r.URL.Query().Get("index"))
	if !ok {
		return
	}
	recs, err := readBulk(w, r.Body, maxBulkBytes)
	if err != nil {
		writeJSONError(w, http.StatusBadRequest, err.Error())
		return
	}
	start := time.Now()
	if err := inst.InsertBatch(recs); err != nil {
		writeMutationError(w, inst, err)
		return
	}
	writeJSON(w, http.StatusOK, BulkResponse{
		OK:       true,
		Inserted: len(recs),
		Objects:  inst.ReadIndex().Len(),
		TookMS:   time.Since(start).Milliseconds(),
	})
}

// handleIndexes lists the served indexes.
func (s *Server) handleIndexes(w http.ResponseWriter, r *http.Request) {
	instances := s.listInstances()
	infos := make([]IndexInfo, 0, len(instances))
	for _, inst := range instances {
		info := IndexInfo{
			Name:    inst.Name,
			Kind:    inst.Kind.String(),
			Healthy: inst.Healthy(),
			Durable: inst.Durable(),
			Backend: inst.Backend(),
		}
		if !info.Healthy {
			info.FailReason = inst.FailReason()
		}
		// A failed recovery registers the instance without a tree.
		if idx := inst.ReadIndex(); idx != nil {
			info.Objects = idx.Len()
			info.Height = idx.Height()
			if b, ok := idx.Bounds(); ok {
				wb := RectToWire(b)
				info.Bounds = &wb
			}
		}
		infos = append(infos, info)
	}
	writeJSON(w, http.StatusOK, infos)
}

// handleHealthz is the liveness probe: the process is up and serving
// HTTP. It says nothing about index health and bypasses admission
// control, so orchestrators never kill a loaded-but-busy process.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, HealthResponse{Status: "ok"})
}

// handleReadyz is the readiness probe: 200 only when every registered
// index is healthy, 503 (naming the sick indexes) otherwise. Like
// /healthz it bypasses admission control. On a follower, readiness
// additionally gates on replication: every follower index must have
// bootstrapped, be within FollowConfig.MaxLagRecords of the primary,
// and have heard from it within MaxLagWall — a replica serving stale
// answers takes itself out of the load balancer instead.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	instances := s.listInstances()
	resp := ReadyResponse{Ready: true, Role: s.role(), Indexes: make([]IndexHealth, 0, len(instances))}
	for _, inst := range instances {
		ih := IndexHealth{Index: inst.Name, Healthy: inst.Healthy()}
		if !ih.Healthy {
			ih.Reason = inst.FailReason()
			resp.Ready = false
		}
		if inst.repl != nil && s.isFollower() {
			st := inst.repl.status()
			ih.Connected = st.connected
			ih.LagRecords = st.lagRecords
			ih.LagSeconds = lagSeconds(st)
			if reason, ok := followerNotReady(st, s.follow.cfg); ok {
				resp.Ready = false
				if ih.Reason == "" {
					ih.Reason = reason
				}
			}
		}
		resp.Indexes = append(resp.Indexes, ih)
	}
	code := http.StatusOK
	if !resp.Ready {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, resp)
}

// followerNotReady applies the lag gates to one follower's status,
// returning the reason it is not ready (ok=false when it is ready).
func followerNotReady(st replStatus, cfg FollowConfig) (string, bool) {
	switch {
	case !st.bootstrapped:
		return "not bootstrapped from primary yet", true
	case st.lagRecords > cfg.MaxLagRecords:
		return fmt.Sprintf("replication lag %d records exceeds %d", st.lagRecords, cfg.MaxLagRecords), true
	case st.lastContact.IsZero() || time.Since(st.lastContact) > cfg.MaxLagWall:
		return fmt.Sprintf("no contact with primary for over %s", cfg.MaxLagWall), true
	}
	return "", false
}

// role labels the node for /readyz: "primary" (never followed),
// "follower" (replicating), or "promoted" (was a follower, now
// writable).
func (s *Server) role() string {
	switch {
	case s.follow == nil:
		return "primary"
	case s.follow.promoted.Load():
		return "promoted"
	default:
		return "follower"
	}
}

// handleMetrics renders the Prometheus text exposition.
//
// The exposition is rendered first and goes out sized, under a hold
// of the connection (heldConn), so a scrape costs one socket write
// where net/http would split it at its buffers.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var b bytes.Buffer
	_, _ = s.metrics.WriteTo(&b)
	h := w.Header()
	h.Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	h.Set("Content-Length", strconv.Itoa(b.Len()))
	c := connOf(r)
	c.hold()
	if _, err := w.Write(b.Bytes()); err == nil {
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
	}
	_ = c.send()
}
