package server

import (
	"context"
	"encoding/json"
	"net/http"
	"strconv"

	"mbrtopo/internal/index"
	"mbrtopo/internal/watch"
)

// newWatchTable wires an instance's subscription table: subscription
// references live in their own in-memory R-tree, and the time each
// batch takes to evaluate and deliver lands in the watch histogram.
func (s *Server) newWatchTable() *watch.Table {
	subIdx, err := index.NewWithPageSize(index.KindRTree, index.PaperPageSize)
	if err != nil {
		// KindRTree is always constructible; this cannot happen.
		panic("server: watch subscription index: " + err.Error())
	}
	return watch.NewTable(nil, subIdx, s.metrics.watchLatency.observe)
}

// DrainWatchers ends every watch stream with a terminal "drain" line.
// topod calls it before http.Server.Shutdown: watch streams never go
// idle on their own, so shutdown would otherwise hang until the drain
// budget expired.
func (s *Server) DrainWatchers() {
	for _, inst := range s.listInstances() {
		inst.watch.Close("drain")
	}
}

// registerWatchMetrics adds the subscription-table families, one sample
// per registered index.
func (s *Server) registerWatchMetrics() {
	family := func(name, help, typ string, value func(watch.Counters) any) {
		s.metrics.collect(name, help, typ, func(emit emitFunc) {
			for _, inst := range s.listInstances() {
				emit(value(inst.watch.Counters()), "index", inst.Name)
			}
		})
	}
	family("topod_watch_subscriptions", "Live watch subscriptions, by index.", "gauge",
		func(c watch.Counters) any { return c.Subscriptions })
	family("topod_watch_evaluated_total", "Subscription evaluations actually performed by the write path.", "counter",
		func(c watch.Counters) any { return c.Evaluated })
	family("topod_watch_pruned_total", "Subscriptions never considered because the subscription R-tree pruned them.", "counter",
		func(c watch.Counters) any { return c.Pruned })
	family("topod_watch_events_total", "Events delivered to watch subscribers.", "counter",
		func(c watch.Counters) any { return c.Events })
	family("topod_watch_dropped_total", "Events lost terminating lagging subscribers.", "counter",
		func(c watch.Counters) any { return c.Dropped })
	family("topod_watch_batches_total", "Commit batches evaluated for watch subscribers.", "counter",
		func(c watch.Counters) any { return c.Batches })
}

// handleWatch serves POST /v1/watch: a long-lived NDJSON stream of
// enter/exit events for a region + relation set (the same wire shape
// as /v1/query): one enter per inserted rectangle the set admits
// against the reference, one exit per deleted one. The stream opens with a watch info line and
// ends with a terminal End line when the server closes the
// subscription (drain, lag) — a disappearing client just drops the
// connection. Watch streams are admitted from their own bounded slot
// pool rather than the request semaphore, so subscribers can never
// starve queries, and the server's default/maximum deadlines do not
// apply — only an explicit client timeout does.
func (s *Server) handleWatch(w http.ResponseWriter, r *http.Request) {
	var req WatchRequest
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
	if req.Buffer > maxWatchBuffer {
		writeJSONError(w, http.StatusBadRequest, "buffer must be at most "+strconv.Itoa(maxWatchBuffer)+" events")
		return
	}
	select {
	case s.watchSlots <- struct{}{}:
	default:
		s.metrics.watchRejected.Add(1)
		shed(w, "watch slots exhausted")
		return
	}
	defer func() { <-s.watchSlots }()
	s.metrics.watchStreams.Add(1)
	defer s.metrics.watchStreams.Add(-1)

	// The table classifies each published record by itself, so
	// subscribing reads nothing of the index and takes no lock of the
	// write path.
	sub, err := inst.watch.Subscribe(ref, rels, req.Buffer)
	if err != nil {
		writeJSONError(w, http.StatusServiceUnavailable, err.Error())
		return
	}
	defer inst.watch.Unsubscribe(sub)

	ctx := r.Context()
	if req.TimeoutMS > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, millis(req.TimeoutMS))
		defer cancel()
	}

	flusher := ndjsonHeaders(w)
	enc := json.NewEncoder(w)
	first := WatchLine{Watch: &WatchInfo{ID: sub.ID(), Index: inst.Name, Generation: sub.StartGen()}}
	if err := enc.Encode(first); err != nil {
		s.metrics.disconnects.Add(1)
		return
	}
	if flusher != nil {
		flusher.Flush()
	}
	for {
		select {
		case ev, ok := <-sub.Events():
			if !ok {
				// The server ended the subscription: say why, then
				// close the stream cleanly.
				_ = enc.Encode(WatchLine{End: sub.EndReason()})
				if flusher != nil {
					flusher.Flush()
				}
				return
			}
			if err := enc.Encode(watchLineFor(ev)); err != nil {
				s.metrics.disconnects.Add(1)
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
		case <-ctx.Done():
			s.metrics.disconnects.Add(1)
			return
		}
	}
}

// watchLineFor flattens an event for the wire.
func watchLineFor(ev watch.Event) WatchLine {
	oid, rect, gen := ev.OID, RectToWire(ev.Rect), ev.Gen
	line := WatchLine{Event: ev.Type.String(), OID: &oid, Rect: &rect, Gen: &gen}
	if ev.Type == watch.Enter {
		line.New = ev.Rel.String()
	} else {
		line.Old = ev.Rel.String()
	}
	return line
}
