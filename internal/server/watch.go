package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"mbrtopo/internal/geom"
	"mbrtopo/internal/index"
	"mbrtopo/internal/rtree"
	"mbrtopo/internal/topo"
	"mbrtopo/internal/watch"
)

// newWatchTable wires an instance's subscription table: the shadow
// seeds from whatever tree the read path serves, subscription
// references live in their own in-memory R-tree, and batch
// commit-to-notification latency lands in the watch histogram.
func (s *Server) newWatchTable(inst *Instance) *watch.Table {
	all := func(geom.Rect) bool { return true }
	scan := func(emit func(geom.Rect, uint64) bool) error {
		idx := inst.ReadIndex()
		if idx == nil {
			return fmt.Errorf("server: index %q has no readable tree", inst.Name)
		}
		_, err := idx.SearchHits(context.Background(), all, all, func(h rtree.Hit) bool { return emit(h.Rect, h.OID) })
		return err
	}
	subIdx, err := index.NewWithPageSize(index.KindRTree, index.PaperPageSize)
	if err != nil {
		// KindRTree is always constructible; this cannot happen.
		panic("server: watch subscription index: " + err.Error())
	}
	return watch.NewTable(scan, subIdx, s.metrics.watchLatency.observe)
}

// WatchSubscribe registers a continuous query against the instance.
// It holds the write path's mutation lock while the subscription table
// activates, so the seeded shadow and the commit queue together cover
// every mutation exactly once.
func (inst *Instance) WatchSubscribe(ref geom.Rect, rels topo.Set, buffer int) (*watch.Subscription, error) {
	if inst.watch == nil {
		return nil, fmt.Errorf("server: index %q does not accept watches", inst.Name)
	}
	mu := inst.mutLock()
	mu.Lock()
	defer mu.Unlock()
	return inst.watch.Subscribe(ref, rels, buffer)
}

// WatchUnsubscribe ends a subscription (no-op when already ended).
func (inst *Instance) WatchUnsubscribe(sub *watch.Subscription) {
	if inst.watch != nil {
		inst.watch.Unsubscribe(sub)
	}
}

// WatchSync blocks until every commit published so far has been
// evaluated and fanned out — a test and benchmark hook.
func (inst *Instance) WatchSync() {
	if inst.watch != nil {
		inst.watch.Sync()
	}
}

// WatchCounters snapshots the instance's subscription-table counters.
func (inst *Instance) WatchCounters() watch.Counters {
	if inst.watch == nil {
		return watch.Counters{}
	}
	return inst.watch.Counters()
}

// DrainWatchers flushes pending notifications and ends every watch
// stream with a terminal "drain" line. topod calls it before
// http.Server.Shutdown: watch streams never go idle on their own, so
// shutdown would otherwise hang until the drain budget expired.
func (s *Server) DrainWatchers() {
	for _, inst := range s.listInstances() {
		if inst.watch == nil {
			continue
		}
		inst.watch.Sync()
		inst.watch.Close("drain")
	}
}

// registerWatchMetrics adds the subscription-table families, one sample
// per registered index.
func (s *Server) registerWatchMetrics() {
	family := func(name, help, typ string, value func(watch.Counters) any) {
		s.metrics.collect(name, help, typ, func(emit emitFunc) {
			for _, inst := range s.listInstances() {
				if inst.watch != nil {
					emit(value(inst.watch.Counters()), "index", inst.Name)
				}
			}
		})
	}
	family("topod_watch_subscriptions", "Live watch subscriptions, by index.", "gauge",
		func(c watch.Counters) any { return c.Subscriptions })
	family("topod_watch_evaluated_total", "Subscription evaluations actually performed by the notifier.", "counter",
		func(c watch.Counters) any { return c.Evaluated })
	family("topod_watch_pruned_total", "Subscriptions never considered because the subscription R-tree pruned them.", "counter",
		func(c watch.Counters) any { return c.Pruned })
	family("topod_watch_events_total", "Events delivered to watch subscribers.", "counter",
		func(c watch.Counters) any { return c.Events })
	family("topod_watch_dropped_total", "Events lost terminating lagging subscribers.", "counter",
		func(c watch.Counters) any { return c.Dropped })
	family("topod_watch_batches_total", "Commit batches evaluated by the watch notifier.", "counter",
		func(c watch.Counters) any { return c.Batches })
}

// handleWatch serves POST /v1/watch: a long-lived NDJSON stream of
// enter/exit/change events for a region + relation set (the same wire
// shape as /v1/query). The stream opens with a watch info line and
// ends with a terminal End line when the server closes the
// subscription (drain, lag) — a disappearing client just drops the
// connection. Watch streams are admitted from their own bounded slot
// pool rather than the request semaphore, so subscribers can never
// starve queries, and the server's default/maximum deadlines do not
// apply — only an explicit client timeout does.
func (s *Server) handleWatch(w http.ResponseWriter, r *http.Request) {
	var req WatchRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(&req); err != nil {
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
	select {
	case s.watchSlots <- struct{}{}:
	default:
		s.metrics.watchRejected.Add(1)
		shed(w, s.cfg.RetryAfter, "watch slots exhausted")
		return
	}
	defer func() { <-s.watchSlots }()
	s.metrics.watchStreams.Add(1)
	defer s.metrics.watchStreams.Add(-1)

	sub, err := inst.WatchSubscribe(ref, rels, req.Buffer)
	if err != nil {
		writeJSONError(w, http.StatusServiceUnavailable, err.Error())
		return
	}
	defer inst.WatchUnsubscribe(sub)

	ctx := r.Context()
	if req.TimeoutMS > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(req.TimeoutMS)*time.Millisecond)
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
	if ev.HasOld {
		line.Old = ev.Old.String()
	}
	if ev.HasNew {
		line.New = ev.New.String()
	}
	return line
}
