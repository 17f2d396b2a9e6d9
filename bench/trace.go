package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"mbrtopo/internal/geom"
	"mbrtopo/internal/index"
	"mbrtopo/internal/mbr"
	"mbrtopo/internal/query"
	"mbrtopo/internal/server"
	"mbrtopo/internal/topo"
	"mbrtopo/internal/wal"
)

// span is one timed call into a layer's public API. Spans are recorded
// only here, around calls the harness makes; topod itself is not
// instrumented.
//
// A root span (Parent 0) carries the wall-clock interval of the call.
// A child span is the same request's call into the layer below, timed
// on its own right after the parent returned: its duration is measured,
// its position is not — it is laid into the parent where the handler
// makes that call. Truncated marks a child that, on its own, ran longer
// than what was left of its parent: the layer between them adds less
// than the clock can resolve (query.stream over rtree.search on topo),
// or a stall landed on the child. The *_us metrics use the durations as
// measured, never the truncated ones.
type span struct {
	ID        int    `json:"id"`
	Parent    int    `json:"parent"`
	Request   int    `json:"request"`
	Name      string `json:"name"`
	StartNS   int64  `json:"start_ns"`
	EndNS     int64  `json:"end_ns"`
	Truncated bool   `json:"truncated,omitempty"`
}

// tracer keeps the spans in memory until the pass ends.
type tracer struct {
	epoch time.Time
	spans []span
	// next[id-1] is where the next child of span id starts.
	next []int64
	// raw collects every measured duration by span name, untruncated;
	// the *_us metrics are medians of these.
	raw map[string][]float64
	// self collects, per span name, duration minus direct children.
	self map[string][]float64
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), raw: map[string][]float64{}, self: map[string][]float64{}}
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// timed runs f and returns when it started and how long it took.
func timed(f func()) (time.Time, time.Duration) {
	start := time.Now()
	f()
	return start, time.Since(start)
}

func (t *tracer) add(s span) int {
	s.ID = len(t.spans) + 1
	t.spans = append(t.spans, s)
	t.next = append(t.next, s.StartNS)
	return s.ID
}

// root records a call at its real position on the clock.
func (t *tracer) root(request int, name string, start time.Time, d time.Duration) int {
	t.raw[name] = append(t.raw[name], us(d))
	s := int64(start.Sub(t.epoch))
	return t.add(span{Request: request, Name: name, StartNS: s, EndNS: s + int64(d)})
}

// child records a separately timed call as the next child of parent.
func (t *tracer) child(parent int, name string, d time.Duration) int {
	t.raw[name] = append(t.raw[name], us(d))
	ps := &t.spans[parent-1]
	start := t.next[parent-1]
	end := start + int64(d)
	truncated := end > ps.EndNS
	if truncated {
		end = ps.EndNS
	}
	t.next[parent-1] = end
	return t.add(span{Parent: parent, Request: ps.Request, Name: name, StartNS: start, EndNS: end, Truncated: truncated})
}

// closeRoot records the root's self time once its children are in.
func (t *tracer) closeRoot(id int, d time.Duration, children ...time.Duration) {
	for _, c := range children {
		d -= c
	}
	name := t.spans[id-1].Name
	t.self[name] = append(t.self[name], us(max(d, 0)))
}

func (t *tracer) median(name string) (float64, bool) {
	v, ok := t.raw[name]
	return median(v), ok
}

type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Note     string `json:"note"`
	Spans    []span `json:"spans"`
}

func (t *tracer) write(path, workload string, seed int64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = json.NewEncoder(f).Encode(traceFile{
		Workload: workload, Seed: seed,
		Note:  "times are ns since the pass began; a root span (parent 0) sits at its real position, a child span is a separately timed call laid into its parent (see bench/README.md)",
		Spans: t.spans,
	})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// inProcess is the replay target: the same server package topod links,
// configured the way the workload's argv configures topod.
type inProcess struct {
	srv     *server.Server
	inst    *server.Instance
	second  *server.Instance
	handler http.Handler
}

func openInProcess(p *plan, dir string) (*inProcess, error) {
	cfg := server.Config{MaxInFlight: 64, DefaultTimeout: 30 * time.Second, CacheSize: p.cacheSize}
	spec := server.IndexSpec{Name: "main", Kind: index.KindRStar, PageSize: index.PaperPageSize, Bulk: true}
	if p.durable {
		spec.Dir, spec.Flat, spec.Fsync = dir, true, wal.SyncAlways
	}
	ip := &inProcess{srv: server.New(cfg)}
	var err error
	if ip.inst, err = ip.srv.AddIndex(spec, p.items); err != nil {
		return nil, err
	}
	if p.rebootInSetup {
		if err := ip.srv.Close(); err != nil {
			return nil, err
		}
		ip.srv = server.New(cfg)
		if ip.inst, err = ip.srv.AddIndex(spec, nil); err != nil {
			return nil, err
		}
	}
	if got := ip.inst.Backend(); got != p.wantBackend {
		return nil, fmt.Errorf("in-process %s index booted on backend %q, want %q", p.name, got, p.wantBackend)
	}
	if p.items2 != nil {
		spec2 := server.IndexSpec{Name: "second", Kind: index.KindRStar, PageSize: index.PaperPageSize, Bulk: true}
		if ip.second, err = ip.srv.AddIndex(spec2, p.items2); err != nil {
			return nil, err
		}
	}
	ip.handler = ip.srv.Handler()
	return ip, nil
}

// pageReads is the IOStats read count of the served indexes.
func (ip *inProcess) pageReads() uint64 {
	n := ip.inst.ReadIndex().IOStats().Reads
	if ip.second != nil {
		n += ip.second.ReadIndex().IOStats().Reads
	}
	return n
}

// serve times Handler().ServeHTTP for one request on a recorder.
func (ip *inProcess) serve(rq *request) (time.Time, time.Duration, error) {
	var body io.Reader
	if rq.body != nil {
		body = bytes.NewReader(rq.body)
	}
	hr := httptest.NewRequest(rq.method, rq.path, body)
	rec := httptest.NewRecorder()
	start, d := timed(func() { ip.handler.ServeHTTP(rec, hr) })
	if rec.Code != http.StatusOK {
		return start, d, fmt.Errorf("in-process %s answered HTTP %d: %.200s", kindNames[rq.kind], rec.Code, rec.Body.String())
	}
	return start, d, nil
}

// filterPreds rebuilds, from the mbr package's public pieces, the node
// and leaf predicates query.Processor descends a covering-rectangle tree
// with: the relation set's Table-1 candidates at the leaves, their
// propagation at the nodes, each behind its domination pre-test. The
// issue asked for plain intersection here; that visits subtrees the
// relation's own predicate prunes (equal, covers), so on topo the
// "traversal alone" would take longer than the stream it is part of.
func filterPreds(rels topo.Set, ref geom.Rect) (node, leaf func(geom.Rect) bool) {
	cands := mbr.CandidatesSet(rels)
	prop := mbr.Propagation(cands)
	nodeDom, leafDom := mbr.DominationFor(prop), mbr.DominationFor(cands)
	node = func(r geom.Rect) bool { return nodeDom.Admits(r, ref) && prop.Has(mbr.ConfigOf(r, ref)) }
	leaf = func(r geom.Rect) bool { return leafDom.Admits(r, ref) && cands.Has(mbr.ConfigOf(r, ref)) }
	return node, leaf
}

// replaySequence is the request order of the traced pass: client 0's
// stream, and on mixed_rw the writer's interleaved one for one.
func replaySequence(p *plan, n int) []*request {
	seq := make([]*request, 0, n+1)
	for i := 0; len(seq) < n; i++ {
		seq = append(seq, &p.streams[0][i%len(p.streams[0])])
		if p.name == wMixedRW {
			seq = append(seq, &p.streams[1][i])
		}
	}
	return seq[:n]
}

// tracedPass replays a fixed prefix of the workload's request stream
// in-process, timing the public entry point of each layer a request
// crosses, then runs the layer fixtures the workload owns. It fills the
// *_us/*_ms metrics of res and writes trace-<workload>.json.
func tracedPass(e *env, p *plan, dir string, sc scale, seed int64, res *result) error {
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	ip, err := openInProcess(p, dir)
	if err != nil {
		return err
	}
	defer ip.srv.Close()
	tr := newTracer()
	ctx := context.Background()
	m := res.Metrics

	// Scratch copies of the two layers under Instance.Insert, so a write
	// can be split into its tree half and its log half.
	var scratchTree index.Index
	var scratchLog *wal.Log
	if p.name == wMixedRW {
		if scratchTree, err = index.NewPacked(index.KindRStar, index.PaperPageSize, p.items); err != nil {
			return err
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		if scratchLog, _, err = wal.Open(filepath.Join(dir, "scratch.wal"), wal.Options{Policy: wal.SyncAlways}); err != nil {
			return err
		}
		defer scratchLog.Close()
	}

	cachedAt := map[string]uint64{} // request body → generation+1 it was cached at
	var pageReads uint64
	handled := 0
	began := time.Now()
	seq := replaySequence(p, sc.replay)
	for i, rq := range seq {
		if time.Since(began) > sc.replayBudget {
			seq = seq[:i]
			break
		}
		if rq.isWrite() {
			if err := replayWrite(tr, ip.inst, scratchTree, scratchLog, i, rq); err != nil {
				return err
			}
			continue
		}
		idx, proc := ip.inst.ReadIndex(), ip.inst.ReadProc()
		io0 := ip.pageReads()
		start, hd, err := ip.serve(rq)
		if err != nil {
			return err
		}
		pageReads += ip.pageReads() - io0
		handled++
		h := tr.root(i, "server.handler", start, hd)

		switch rq.kind {
		case kQuery, kConj:
			_, dd := timed(func() { err = decodeQuery(rq.body) })
			if err != nil {
				return err
			}
			tr.child(h, "server.decode", dd)
			gen := ip.inst.Generation() + 1
			if p.cacheSize > 0 && cachedAt[string(rq.body)] == gen {
				// A hit replays stored bytes: nothing below decode runs.
				tr.raw["server.cache_hit"] = append(tr.raw["server.cache_hit"], us(hd))
				tr.closeRoot(h, hd, dd)
				continue
			}
			cachedAt[string(rq.body)] = gen
			var matches []query.Match
			collect := func(mt query.Match) bool { matches = append(matches, mt); return true }
			discard := func(query.Match) bool { return true }
			stream := func(yield func(query.Match) bool) {
				if rq.kind == kConj {
					_, err = proc.StreamConjunction(ctx, rq.rels, rq.ref, rq.rels2, rq.ref2, 0, yield)
				} else {
					_, err = proc.Stream(ctx, rq.rels, rq.ref, 0, yield)
				}
			}
			stream(collect)
			if err != nil {
				return err
			}
			_, sd := timed(func() { stream(discard) })
			s := tr.child(h, "query.stream", sd)
			search := func() {
				node, leaf := filterPreds(rq.rels, rq.ref)
				_, err = idx.SearchCtx(ctx, node, leaf, func(geom.Rect, uint64) bool { return true })
			}
			// Like the stream, which ran once to collect: the first pass
			// through these closures costs a microsecond of cold code, as
			// much as the whole query layer adds on topo.
			search()
			_, rd := timed(search)
			if err != nil {
				return err
			}
			tr.child(s, "rtree.search", rd)
			tr.self["query.stream"] = append(tr.self["query.stream"], us(max(sd-rd, 0)))
			_, ed := timed(func() {
				enc := json.NewEncoder(io.Discard)
				for _, mt := range matches {
					oid, rect := mt.OID, server.RectToWire(mt.Rect)
					_ = enc.Encode(server.QueryLine{OID: &oid, Rect: &rect})
				}
			})
			tr.child(h, "server.encode", ed)
			tr.closeRoot(h, hd, dd, sd, ed)

		case kKNN:
			_, kd := timed(func() { _, _, err = idx.NearestCtx(ctx, rq.pt, rq.k) })
			if err != nil {
				return err
			}
			tr.child(h, "rtree.knn", kd)
			tr.closeRoot(h, hd, kd)

		case kJoin:
			left, right := ip.inst.ReadIndex(), ip.second.ReadIndex()
			_, dd := timed(func() {
				var jr server.JoinRequest
				if err = json.Unmarshal(rq.body, &jr); err == nil {
					_, err = server.ParseRelationSet(jr.Relations)
				}
			})
			if err != nil {
				return err
			}
			tr.child(h, "server.decode", dd)
			var jres query.JoinResult
			if jres, err = query.JoinTopological(left, right, rq.rels, query.JoinOptions{}); err != nil {
				return err
			}
			_, jd := timed(func() {
				_, err = query.JoinStream(ctx, left, right, rq.rels, query.JoinOptions{}, func(query.JoinPair) bool { return true })
			})
			if err != nil {
				return err
			}
			tr.child(h, "query.join", jd)
			_, ed := timed(func() {
				enc := json.NewEncoder(io.Discard)
				for _, pr := range jres.Pairs {
					lo, ro := pr.LeftOID, pr.RightOID
					lr, rr := server.RectToWire(pr.LeftRect), server.RectToWire(pr.RightRect)
					_ = enc.Encode(server.JoinLine{LeftOID: &lo, RightOID: &ro, LeftRect: &lr, RightRect: &rr})
				}
			})
			tr.child(h, "server.encode", ed)
			tr.closeRoot(h, hd, dd, jd, ed)
		}
	}
	if handled == 0 {
		return fmt.Errorf("traced pass replayed no request within %s", sc.replayBudget)
	}
	res.Samples["trace.requests"] = len(seq)

	set := func(metric, spanName string) {
		if v, ok := tr.median(spanName); ok {
			m[metric] = v
			res.Samples[metric] = len(tr.raw[spanName])
		}
	}
	set("server.handler_us", "server.handler")
	set("server.decode_us", "server.decode")
	set("server.encode_us", "server.encode")
	set("server.cache_hit_us", "server.cache_hit")
	set("server.insert_us", "server.insert")
	set("query.stream_us", "query.stream")
	set("rtree.search_us", "rtree.search")
	set("rtree.knn_us", "rtree.knn")
	set("rtree.insert_us", "rtree.insert")
	set("wal.commit_us", "wal.commit")
	if v, ok := tr.median("query.join"); ok {
		m["query.join_ms"] = v / 1000
		res.Samples["query.join_ms"] = len(tr.raw["query.join"])
	}
	m["server.self_us"] = median(tr.self["server.handler"])
	if v, ok := tr.self["query.stream"]; ok {
		m["query.self_us"] = median(v)
	}
	m["pagefile.reads_per_op"] = float64(pageReads) / float64(handled)
	if scratchLog != nil {
		m["wal.bytes_per_write"] = float64(scratchLog.Size()) / float64(scratchLog.Records())
	}
	var handlerSum, coveredSum float64
	for i, h := range tr.raw["server.handler"] {
		handlerSum += h
		coveredSum += h - tr.self["server.handler"][i]
	}
	m["trace.coverage_frac"] = coveredSum / handlerSum
	m["net.overhead_us"] = m["client.raw_lat_p50_ms"]*1000 - m["server.handler_us"]

	if err := fixtures(p, ip, dir, sc, res); err != nil {
		return err
	}
	return tr.write(filepath.Join(e.outDir, "trace-"+p.name+".json"), p.name, seed)
}

// decodeQuery is the decode step of handleQuery, from public pieces:
// JSON → QueryRequest, ParseRelationSet and RectFromWire per term.
func decodeQuery(body []byte) error {
	var req server.QueryRequest
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
		return err
	}
	if _, err := server.ParseRelationSet(req.Relations); err != nil {
		return err
	}
	if _, err := server.RectFromWire(req.Ref); err != nil {
		return err
	}
	if len(req.Relations2) > 0 {
		if _, err := server.ParseRelationSet(req.Relations2); err != nil {
			return err
		}
		if _, err := server.RectFromWire(req.Ref2); err != nil {
			return err
		}
	}
	return nil
}

// replayWrite applies one mutation through Instance.Insert/Delete (the
// durable path: tree, WAL reserve, group-commit fsync) as the root span
// server.insert, then repeats its two halves on the scratch tree and
// log as the children rtree.insert and wal.commit.
func replayWrite(tr *tracer, inst *server.Instance, tree index.Index, log *wal.Log, i int, rq *request) error {
	op, apply, applyTree := wal.OpInsert, inst.Insert, tree.Insert
	if rq.kind == kDelete {
		op, apply, applyTree = wal.OpDelete, inst.Delete, tree.Delete
	}
	var err error
	start, d := timed(func() { err = apply(rq.ref, rq.oid) })
	if err != nil {
		return fmt.Errorf("in-process %s of object %d: %w", kindNames[rq.kind], rq.oid, err)
	}
	root := tr.root(i, "server.insert", start, d)
	_, td := timed(func() { err = applyTree(rq.ref, rq.oid) })
	if err != nil {
		return err
	}
	tr.child(root, "rtree.insert", td)
	_, wd := timed(func() { err = log.Reserve(wal.Record{Op: op, OID: rq.oid, Rect: rq.ref}).Wait() })
	if err != nil {
		return err
	}
	tr.child(root, "wal.commit", wd)
	tr.closeRoot(root, d, td, wd)
	return nil
}
