package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mbrtopo/internal/geom"
	"mbrtopo/internal/index"
	"mbrtopo/internal/mbr"
	"mbrtopo/internal/topo"
	"mbrtopo/internal/wal"
	"mbrtopo/internal/watch"
	"mbrtopo/internal/workload"
)

// The write-path simulator (DESIGN §15) replays one seeded op stream
// over each tree kind served as a durable primary and as its replica,
// the result cache off (pair 0) and on (pair 1), beside a never-rebooted
// in-memory twin, and after every step holds every answer, watch event
// and count to a brute-force scan of the acknowledged history — a
// multiset of (oid, rect) registrations, which may hold one oid under
// several rectangles and one pair several times — and every node's
// answers to the twin's bytes. A failure names the seed,
// the configuration and the step, and the go test -run that replays it.

// simSeeds are the tier-1 seeds. FuzzSim's corpus pairs each with
// every tree kind — seed#0 and seed#1 are R-trees, seed#2 and seed#3
// R+-trees, seed#4 and seed#5 R*-trees — and every go test runs those
// inputs in parallel.
var simSeeds = []int64{1, 2}

// FuzzSim runs the simulator over one tree kind per input (kind is
// taken modulo the number of kinds), so one input stays well inside the
// 10 s the fuzzer gives it. A failing input the fuzzer finds replays
// from the file it writes under testdata/fuzz/FuzzSim, through the same
// go test -run.
func FuzzSim(f *testing.F) {
	kinds := index.AllKinds()
	for k := range kinds {
		for _, seed := range simSeeds {
			f.Add(seed, uint8(k))
		}
	}
	f.Fuzz(func(t *testing.T, seed int64, k uint8) {
		t.Parallel()
		kind := kinds[int(k)%len(kinds)]
		t.Run(kindName(kind), func(t *testing.T) { runSim(t, seed, kind) })
	})
}

// simDeck is one run's op stream before its seed shuffles it: every op
// at least once, writes the most often.
var simDeck = strings.Fields(strings.Repeat("insert ", 14) + strings.Repeat("delete ", 8) +
	"bulk bulk bulk pile twice refused subscribe subscribe subscribe unsubscribe unsubscribe checkpoint checkpoint " +
	"fills fills kill kill restart restart disk promote fault fault fault")

const (
	simPageSize = 168 // capacity 4: deep trees, and the R+ pile overflows
	simPile     = 2000.0
	simBuffer   = 4096
)

type simNode struct {
	role string // "twin", "primary" or "replica"
	srv  *Server
	inst *Instance
	h    http.Handler
	url  string // a listener serving h, for /v1/watch streams
	spec IndexSpec
	subs map[*simSub]*simWatch
	// filled maps a request to the writes acknowledged at its last fill.
	filled map[string]int
	// base is what the current step started from: watch work, WAL
	// records, generation, cache invalidations and bootstraps (a node
	// booted during the step has none).
	base *[5]uint64
	// gen and since are where a primary's log must be: its checkpoint
	// generation and the records logged since (DESIGN §8).
	gen, since uint64
}

func (n *simNode) cached() bool { return n.srv.cache != nil }

// invalidations is n's topod_cache_invalidations_total.
func (n *simNode) invalidations() uint64 {
	if !n.cached() {
		return 0
	}
	return n.srv.cache.invalidations.Load()
}

// snapshots is how many bootstrap snapshots n loaded as a replica.
func (n *simNode) snapshots() uint64 {
	if n.inst.repl == nil {
		return 0
	}
	return n.inst.repl.status().snapshots
}

// simSub is one subscription the simulated clients hold on every node:
// in process, or as a POST /v1/watch stream.
type simSub struct {
	rels   topo.Set
	ref    geom.Rect
	stream bool
}

// simWatch is a node's subscription. from counts the step's records
// acknowledged before it subscribed, 0 when it subscribed in an earlier
// step; start is its StartGen or its stream's header generation; a
// stream also keeps how many of its lines were taken and, on a replica,
// the snapshots loaded when it opened: a bootstrap since must have
// ended it.
type simWatch struct {
	sub    *watch.Subscription
	stream *watchStream
	from   int
	start  uint64
	taken  int
	snaps  uint64
}

// simReg is one (oid, rect) registration of the history.
type simReg struct {
	OID  uint64
	Rect geom.Rect
}

// simEvent is one watch event, as the scan predicts it and as a
// subscriber receives it.
type simEvent struct {
	typ string
	reg simReg
}

func (e simEvent) String() string {
	return fmt.Sprintf("%s %d %v", e.typ, e.reg.OID, RectToWire(e.reg.Rect))
}

type simPair struct {
	primary, replica *simNode
	front            *httptest.Server // the primary's stable address
	route            atomic.Value     // http.Handler of the current primary
	link             *simLink
}

type sim struct {
	t       *testing.T
	seed    int64
	kind    index.Kind
	rng     *rand.Rand
	step    int
	op      string
	live    []simReg // the acknowledged history, in no order
	nextOID uint64
	windows []geom.Rect // [0] is the whole world
	twin    *simNode
	pairs   [2]*simPair
	subs    []*simSub
	// acked holds the records acknowledged in this step, in order.
	acked []wal.Record
	// writes counts acknowledged writes and commits those of this step;
	// survived counts cached hits checked after a write passed.
	writes, commits, survived int
	// invalidated counts the entries the cached pair's commits and
	// bootstraps invalidated.
	invalidated uint64
}

func runSim(t *testing.T, seed int64, kind index.Kind) {
	s := &sim{t: t, seed: seed, kind: kind, rng: rand.New(rand.NewSource(seed)), nextOID: 1 << 20}
	var items []wal.Record
	for _, it := range workload.NewDataset(workload.Medium, 150, 0, seed).Items {
		items = append(items, wal.Record{Op: wal.OpInsert, OID: it.OID, Rect: it.Rect})
	}
	s.windows = []geom.Rect{geom.R(-10, -10, simPile+200, simPile+200)}
	for range 3 {
		x, y := s.rng.Float64()*800, s.rng.Float64()*800
		s.windows = append(s.windows, geom.R(x, y, x+100+s.rng.Float64()*200, y+100+s.rng.Float64()*200))
	}
	t.Cleanup(func() {
		if t.Failed() {
			replay := "go test -run with the file the fuzzer wrote under testdata/fuzz/FuzzSim"
			if strings.Count(t.Name(), "/") == 2 { // a corpus entry: FuzzSim/seed#N/kind or FuzzSim/<file>/kind
				replay = "go test ./internal/server -run '^" + strings.ReplaceAll(t.Name(), "/", "$/^") + "$'"
			}
			t.Logf("seed %d, step %d (%s); replay: %s", seed, s.step, s.op, replay)
		}
	})
	spec := IndexSpec{Name: "main", Kind: kind, PageSize: simPageSize}
	s.twin = s.boot("twin", Config{}, spec)
	if code, body := call(s.twin.h, http.MethodGet, "/v1/replicate?index=main", nil); code != http.StatusBadRequest || !strings.Contains(string(body), "nothing to replicate") {
		s.fatalf(s.twin, "/v1/replicate on a non-durable index: HTTP %d %s", code, body)
	}
	for i := range s.pairs {
		p := &simPair{link: &simLink{}}
		p.front = httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			p.route.Load().(http.Handler).ServeHTTP(w, r)
		}))
		t.Cleanup(p.front.Close)
		pspec := spec
		pspec.Dir, pspec.Fsync, pspec.CheckpointEvery = t.TempDir(), wal.SyncNever, 7
		p.primary = s.boot("primary", Config{CacheSize: 256 * i, ReplHeartbeat: 25 * time.Millisecond}, pspec)
		// The front serves as topod does; its socket writes count on the
		// first primary, whichever node it routes to later.
		p.front.Listener = p.primary.srv.Listener(p.front.Config, p.front.Listener)
		p.front.Start()
		p.primary.gen = 1
		if inst := p.primary.inst; !inst.Durable() || inst.Recovered || inst.Backend() != "paged" {
			s.fatalf(p.primary, "fresh build: durable %v, recovered %v, backend %q", inst.Durable(), inst.Recovered, inst.Backend())
		}
		assertTwoFiles(t, "fresh build", pspec.Dir, "main")
		p.route.Store(p.primary.h)
		s.pairs[i] = p
	}
	s.op = "boot"
	s.write(items, http.StatusOK) // an empty tree packs a batch (STR)
	// The writers' trees first: a fault in the replicas' image is named, not timed out.
	for _, n := range s.writers() {
		s.checkTree(n)
	}
	for _, p := range s.pairs {
		s.startReplica(p)
		if h := p.link.firstHead(); len(h) < simImageAt || !bytes.HasSuffix(h[:simHeaderLen], []byte("\r\n\r\n")) ||
			binary.LittleEndian.Uint32(h[simPreambleAt:]) != preambleLen {
			s.fatalf(p.replica, "the bootstrap stream starts %q, not as faultAt's regions say", h)
		}
	}
	s.settle()
	s.subscribe(topo.NotDisjoint, s.windows[0], true)
	s.subscribe(topo.NewSet(topo.Meet), s.windows[1], false)

	deck := slices.Clone(simDeck)
	s.rng.Shuffle(len(deck), func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
	s.check()
	for i, op := range deck {
		s.step, s.op = i+1, op
		s.begin()
		s.do(op)
		s.settle()
		s.check()
	}
	if s.survived == 0 {
		s.fatalf(nil, "no cache hit outlived a write")
	}
	if s.invalidated == 0 {
		s.fatalf(nil, "topod_cache_invalidations_total never rose on the cached pair")
	}
	if c := s.twin.inst.watch.Counters(); c.Evaluated == 0 || c.Pruned == 0 {
		s.fatalf(s.twin, "a filter layer of the watch table never fired: %+v", c)
	}
	// The last check took every event it expected; draining must find
	// no more, and end each stream with its terminal line.
	s.op = "drain"
	for _, n := range s.nodes() {
		n.srv.DrainWatchers()
		if got := s.ended(n, "drain"); len(got) > 0 {
			s.fatalf(n, "events %v after the last check", got)
		}
	}
}

func (s *sim) fatalf(n *simNode, format string, args ...any) {
	s.t.Helper()
	where := kindName(s.kind)
	if n != nil {
		where = fmt.Sprintf("%s %s cache=%v", where, n.role, n.cached())
	}
	s.t.Fatalf("%s: %s", where, fmt.Sprintf(format, args...))
}

// boot serves spec on a new server; with spec.Dir set and the
// directory already written, that is a reboot from the directory alone.
func (s *sim) boot(role string, cfg Config, spec IndexSpec) *simNode {
	srv := New(cfg)
	inst, err := srv.AddIndex(spec, nil)
	if err != nil {
		s.fatalf(nil, "booting the %s: %v", role, err)
	}
	n := &simNode{role: role, srv: srv, inst: inst, h: srv.Handler(), spec: spec, subs: map[*simSub]*simWatch{}, filled: map[string]int{}}
	ts := startServer(n.srv, n.h)
	n.url = ts.URL
	s.t.Cleanup(ts.Close) // after srv.Close has ended its streams
	s.t.Cleanup(func() { srv.Close() })
	if role != "replica" {
		for _, sub := range s.subs {
			s.watch(n, sub)
		}
	}
	return n
}

// startReplica boots a replica following p's front and waits for its
// bootstrap; its subscriptions start from there.
func (s *sim) startReplica(p *simPair) {
	spec := p.primary.spec
	spec.Dir, spec.Follower = s.t.TempDir(), true
	n := s.boot("replica", Config{CacheSize: p.primary.srv.cfg.CacheSize, ReplHeartbeat: 25 * time.Millisecond}, spec)
	err := n.srv.Follow(FollowConfig{Primary: p.front.URL, Client: p.link.client(), Backoff: fastBackoff,
		StallTimeout: 150 * time.Millisecond, Seed: s.seed})
	if err != nil {
		s.fatalf(n, "follow: %v", err)
	}
	p.replica = n
	s.catchUp(p)
	for _, sub := range s.subs {
		s.watch(n, sub)
	}
}

func (s *sim) nodes() []*simNode {
	out := []*simNode{s.twin}
	for _, p := range s.pairs {
		out = append(out, p.primary, p.replica)
	}
	return out
}

// writers are the nodes a client writes to: the twin and the primaries.
func (s *sim) writers() []*simNode { return []*simNode{s.twin, s.pairs[0].primary, s.pairs[1].primary} }

// call serves one request in process. A handler that panics answers
// 500 with the panic, so the failure still names its step.
func call(h http.Handler, method, target string, body io.Reader) (code int, out []byte) {
	defer func() {
		if err := recover(); err != nil {
			code, out = http.StatusInternalServerError, fmt.Appendf(nil, "panic: %v", err)
		}
	}()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, target, body))
	return rec.Code, rec.Body.Bytes()
}

func jsonBody(v any) io.Reader { return bytes.NewReader(must(json.Marshal(v))) }

// begin notes where the step starts from.
func (s *sim) begin() {
	s.acked, s.commits = s.acked[:0], 0
	for _, n := range s.nodes() {
		for _, w := range n.subs {
			w.from = 0
		}
		c := n.inst.watch.Counters()
		n.base = &[5]uint64{c.Evaluated + c.Pruned, n.srv.metrics.walRecords.Load(), n.inst.Generation(), n.invalidations(), n.snapshots()}
	}
}

func (s *sim) do(op string) {
	p := s.pairs[s.rng.Intn(2)]
	switch op {
	case "insert":
		s.write([]wal.Record{s.newRecord()}, http.StatusOK)
	case "delete":
		s.write([]wal.Record{s.victim()}, http.StatusOK)
	case "bulk":
		recs := make([]wal.Record, 2+s.rng.Intn(4))
		for i := range recs {
			recs[i] = s.newRecord()
		}
		s.write(recs, http.StatusOK)
	case "pile":
		s.pile(p)
	case "twice":
		s.twice()
	case "refused":
		// A delete of nothing is a 404; a replica refuses writes, naming its primary.
		s.write([]wal.Record{{Op: wal.OpDelete, OID: 424242, Rect: geom.R(1, 1, 2, 2)}}, http.StatusNotFound)
		for _, p := range s.pairs {
			for _, path := range []string{"/v1/insert", "/v1/bulk?index=main"} {
				code, body := call(p.replica.h, http.MethodPost, path, jsonBody(UpdateRequest{OID: 424243, Rect: []float64{1, 1, 2, 2}}))
				var er ErrorResponse
				if json.Unmarshal(body, &er) != nil || code != http.StatusForbidden || er.Primary != p.front.URL {
					s.fatalf(p.replica, "%s on a replica: HTTP %d %s, want 403 naming %s", path, code, body, p.front.URL)
				}
			}
		}
	case "subscribe":
		rels := topo.NewSet(topo.All()[s.rng.Intn(8)])
		if s.rng.Intn(3) == 0 {
			rels = rels.Add(topo.All()[s.rng.Intn(8)])
		}
		s.subscribe(rels, s.windows[s.rng.Intn(len(s.windows))], false)
	case "unsubscribe":
		if len(s.subs) > 1 {
			i := 1 + s.rng.Intn(len(s.subs)-1)
			sub := s.subs[i]
			s.subs = slices.Delete(s.subs, i, i+1)
			for _, n := range s.nodes() {
				n.inst.watch.Unsubscribe(n.subs[sub].sub)
				delete(n.subs, sub)
			}
		}
	case "checkpoint":
		s.checkpoint(s.pairs[0].primary)
		s.checkpoint(s.pairs[1].primary)
	case "fills":
		s.fills()
	case "kill":
		s.reboot(p, false)
	case "restart":
		if s.rng.Intn(2) == 0 {
			s.checkpoint(p.primary) // then the close has nothing to checkpoint
		}
		s.reboot(p, true)
	case "disk":
		s.disk(p)
	case "promote":
		s.promote(p)
	case "fault":
		s.fault(p)
	}
}

// newRecord inserts a fresh object somewhere in the world; one in four
// lies along a window's edge, where the touching relations live.
func (s *sim) newRecord() wal.Record {
	x, y := s.rng.Float64()*1000, s.rng.Float64()*1000
	w, h := 1+s.rng.Float64()*60, 1+s.rng.Float64()*60
	if s.rng.Intn(4) == 0 {
		win := s.windows[1+s.rng.Intn(len(s.windows)-1)]
		x = win.Max.X
	}
	s.nextOID++
	return wal.Record{Op: wal.OpInsert, OID: s.nextOID, Rect: geom.R(x, y, x+w, y+h)}
}

// victim deletes a stored registration.
func (s *sim) victim() wal.Record {
	r := s.live[s.rng.Intn(len(s.live))]
	return wal.Record{Op: wal.OpDelete, OID: r.OID, Rect: r.Rect}
}

// write sends one commit — a record, or a batch of inserts — to every
// writer over the wire and requires want from each; the history takes
// it when it is acknowledged.
func (s *sim) write(recs []wal.Record, want int) {
	for _, n := range s.writers() {
		s.send(n, recs, want)
	}
	s.ack(recs, want)
}

func (s *sim) send(n *simNode, recs []wal.Record, want int) {
	var code int
	var body []byte
	if len(recs) > 1 {
		var buf bytes.Buffer
		for _, r := range recs {
			w := RectToWire(r.Rect)
			json.NewEncoder(&buf).Encode(BulkLine{OID: r.OID, Rect: w[:]})
		}
		code, body = call(n.h, http.MethodPost, "/v1/bulk?index=main", &buf)
	} else {
		w := RectToWire(recs[0].Rect)
		code, body = call(n.h, http.MethodPost, "/v1/"+recs[0].Op.String(), jsonBody(UpdateRequest{OID: recs[0].OID, Rect: w[:]}))
	}
	var resp BulkResponse // UpdateResponse's fields, and Inserted
	if json.Unmarshal(body, &resp) != nil || code != want || code == http.StatusOK &&
		(!resp.OK || resp.Objects != n.inst.ReadIndex().Len() || len(recs) > 1 && resp.Inserted != len(recs)) {
		s.fatalf(n, "%d-record %s commit: HTTP %d %s, want %d", len(recs), recs[0].Op, code, body, want)
	}
}

func (s *sim) ack(recs []wal.Record, want int) {
	if want != http.StatusOK {
		return
	}
	for _, r := range recs {
		reg := simReg{r.OID, r.Rect}
		if r.Op == wal.OpInsert {
			s.live = append(s.live, reg)
		} else {
			i := slices.Index(s.live, reg)
			s.live = slices.Delete(s.live, i, i+1)
		}
	}
	s.writes++
	s.commits++
	s.acked = append(s.acked, recs...)
	for _, p := range s.pairs {
		if p.primary.since += uint64(len(recs)); p.primary.spec.CheckpointEvery > 0 && p.primary.since >= uint64(p.primary.spec.CheckpointEvery) {
			p.primary.gen, p.primary.since = p.primary.gen+1, 0
		}
	}
}

func (s *sim) checkpoint(n *simNode) {
	if err := n.inst.Checkpoint(); err != nil {
		s.fatalf(n, "checkpoint: %v", err)
	}
	n.gen, n.since = n.gen+1, 0
}

// pile builds 64 nested squares beside four small objects far from the
// data, then inserts a rectangle over all of them: an R+-tree of
// capacity 4 must refuse it whole as unsplittable, after dividing the
// small objects' leaf — on its own and at the end of a batch, whose
// prefix stays out too — and the other kinds take it. The pair then
// restarts from what it checkpointed.
func (s *sim) pile(p *simPair) {
	at := func(x0, y0, x1, y1 float64) geom.Rect { return geom.R(simPile+x0, simPile+y0, simPile+x1, simPile+y1) }
	ins := func(oid uint64, r geom.Rect) wal.Record {
		return wal.Record{Op: wal.OpInsert, OID: 5<<20 + oid, Rect: r}
	}
	recs := []wal.Record{ins(1, at(0, 0, 1, 1)), ins(2, at(2, 0, 3, 1))}
	for k := 1; k <= 64; k++ {
		d := float64(k)
		recs = append(recs, ins(uint64(100+k), at(80-d, 50-d, 80+d, 50+d)))
	}
	s.write(recs, http.StatusOK)
	more, over := []wal.Record{ins(3, at(0, 2, 1, 3)), ins(4, at(2, 2, 3, 3))}, ins(999, at(1.5, -20, 150, 120))
	if s.kind == index.KindRPlus {
		s.write(append(slices.Clone(more), over), http.StatusUnprocessableEntity)
	}
	s.write(more[:1], http.StatusOK)
	s.write(more[1:], http.StatusOK)
	want := http.StatusOK
	if s.kind == index.KindRPlus {
		want = http.StatusUnprocessableEntity
	}
	s.write([]wal.Record{over}, want)
	s.reboot(p, true)
}

// twice stores a live oid again under a new rectangle and, in the same
// commit, a new oid twice under one rectangle: every answer must list
// each registration, as often as it was inserted, whatever the shape of
// the tree a node built.
func (s *sim) twice() {
	moved, again := s.newRecord(), s.newRecord()
	moved.OID = s.live[s.rng.Intn(len(s.live))].OID
	s.write([]wal.Record{moved, again, again}, http.StatusOK)
}

// fills runs readers of the whole world on the cached pair while its
// primary takes six inserts back to back and its replica applies them,
// so fills are in flight at every commit; then the others take them,
// and both cached nodes must answer with all of them (two rounds). A
// fill that pinned the tree before a commit and stored its answer after
// the commit invalidated would serve a stale hit. Each reader pauses
// fillPause between its queries: that keeps a fill beside every commit
// at a fraction of the CPU of readers that never pause, which outran
// the rest of the simulator.
func (s *sim) fills() {
	req := QueryRequest{Index: "main", Relations: []string{"not_disjoint"}, Ref: wireOf(s.windows[0])}
	p := s.pairs[1]
	for range 2 {
		var stop atomic.Bool
		var wg sync.WaitGroup
		for _, n := range []*simNode{p.primary, p.primary, p.replica} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for !stop.Load() {
					call(n.h, http.MethodPost, "/v1/query", jsonBody(req))
					time.Sleep(fillPause)
				}
			}()
		}
		recs := make([]wal.Record, 6)
		for i := range recs {
			recs[i] = s.newRecord()
			s.send(p.primary, recs[i:i+1], http.StatusOK)
		}
		s.catchUp(p)
		stop.Store(true)
		wg.Wait()
		for i := range recs {
			for _, n := range s.writers() {
				if n != p.primary {
					s.send(n, recs[i:i+1], http.StatusOK)
				}
			}
			s.ack(recs[i:i+1], http.StatusOK)
		}
		s.compareQuery(req, p.primary)
		s.compareQuery(req, p.replica)
	}
}

// fillPause paces fills' readers (see there).
const fillPause = 50 * time.Microsecond

// cut takes p's primary off the network: no new replication connection,
// and the open ones closed and gone from the primary.
func (s *sim) cut(p *simPair) {
	p.link.setDown(true)
	p.front.CloseClientConnections()
	s.await(p.primary, "replication streams to close", func() bool { return p.primary.srv.metrics.replStreams.Load() == 0 })
}

// rejoin routes p's front to n, the new primary, and reconnects.
func (s *sim) rejoin(p *simPair, n *simNode) {
	p.primary = n
	p.route.Store(n.h)
	p.link.setDown(false)
}

// reboot takes the primary down — kill -9, or a clean close, which
// checkpoints — and boots it again from its directory alone: the image
// of the generation its log must be at, that generation's log and
// nothing else. A killed primary replays exactly the records logged
// since its last checkpoint and checkpoints again; a closed one serves
// its image.
func (s *sim) reboot(p *simPair, clean bool) {
	old := p.primary
	replay := old.since
	s.cut(p)
	if clean {
		if err := old.srv.Close(); err != nil {
			s.fatalf(old, "close: %v", err)
		}
		s.ended(old, "closed")
		replay = 0
	} else {
		abandon(old.inst)
		old.inst.watch.Close("killed")
		s.ended(old, "killed")
	}
	spec := old.spec
	spec.Follower = false
	assertTwoFiles(s.t, "before the reboot", spec.Dir, "main")
	gen := old.gen
	if clean && old.since > 0 {
		gen++
	}
	_, image := imageOnDisk(s.t, spec.Dir, "main")
	if _, err := os.Stat(filepath.Join(spec.Dir, fmt.Sprintf("main.wal.%d", gen))); err != nil || image.Generation() != gen {
		s.fatalf(old, "the image is generation %d beside %v, want generation %d", image.Generation(), err, gen)
	}
	n := s.boot("primary", old.srv.cfg, spec)
	n.gen = gen
	backend := "flat"
	if replay > 0 {
		backend, n.gen = "recovered", gen+1
	}
	m := n.srv.Metrics()
	if inst := n.inst; !inst.Recovered || !inst.Healthy() || inst.Replayed != int(replay) || inst.Backend() != backend ||
		m.walReplays.Load() != replay || (replay > 0) != (m.checkpoints.Load() > 0) {
		s.fatalf(n, "recovered %v, healthy %v (%s), backend %q, replayed %d (%d in metrics), %d checkpoints; want %d records replayed, backend %q",
			inst.Recovered, inst.Healthy(), inst.FailReason(), inst.Backend(), inst.Replayed, m.walReplays.Load(), m.checkpoints.Load(), replay, backend)
	}
	assertTwoFiles(s.t, "after the reboot", spec.Dir, "main")
	s.rejoin(p, n)
}

// disk fails the primary's log under a write: the write is answered 503
// and never acknowledged, the index degrades to 503 naming why, and
// kill -9 and a reboot bring it back without the write. The checkpoint
// first keeps the write from crossing an automatic one, whose image
// would hold it.
func (s *sim) disk(p *simPair) {
	n := p.primary
	s.checkpoint(n)
	n.inst.dur.faults = &faultPlan{walWrite: func(int64, int) error { return errors.New("injected disk failure") }}
	var er ErrorResponse
	for i, prefix := range []string{"server: mutation applied but not logged: ", "index main is unhealthy: wal append failed: "} {
		w := RectToWire(s.newRecord().Rect)
		code, body := call(n.h, http.MethodPost, "/v1/insert", jsonBody(UpdateRequest{OID: s.nextOID, Rect: w[:]}))
		if er.Error = ""; json.Unmarshal(body, &er) != nil || code != http.StatusServiceUnavailable || !strings.HasPrefix(er.Error, prefix) || !strings.Contains(er.Error, "injected disk failure") {
			s.fatalf(n, "insert %d on a failing log: HTTP %d %s, want 503 saying %q", i+1, code, body, prefix)
		}
	}
	for _, method := range []string{http.MethodPost + " /v1/query", http.MethodGet + " /readyz"} {
		method, path, _ := strings.Cut(method, " ")
		if code, body := call(n.h, method, path, jsonBody(QueryRequest{Relations: []string{"overlap"}, Ref: []float64{0, 0, 10, 10}})); code != http.StatusServiceUnavailable {
			s.fatalf(n, "%s on a degraded index: HTTP %d %s, want 503", path, code, body)
		}
	}
	s.reboot(p, false)
}

// promote kills the primary and promotes its caught-up replica, which
// keeps its subscriptions; a new replica follows the promoted node.
func (s *sim) promote(p *simPair) {
	s.cut(p)
	abandon(p.primary.inst)
	p.primary.inst.watch.Close("killed")
	s.ended(p.primary, "killed")
	n := p.replica
	if code, body := call(s.twin.h, http.MethodPost, "/v1/promote", nil); code != http.StatusConflict {
		s.fatalf(s.twin, "promote on a primary: HTTP %d %s, want 409", code, body)
	}
	for range 2 { // promotion is idempotent
		if code, body := call(n.h, http.MethodPost, "/v1/promote", nil); code != http.StatusOK {
			s.fatalf(n, "promote: HTTP %d %s", code, body)
		}
	}
	var rr ReadyResponse
	if code, body := call(n.h, http.MethodGet, "/readyz", nil); code != http.StatusOK || json.Unmarshal(body, &rr) != nil || !rr.Ready || rr.Role != "promoted" {
		s.fatalf(n, "/readyz after the promotion: HTTP %d %s", code, body)
	}
	n.role, n.base, n.gen, n.since = "primary", nil, p.primary.gen+1, 0
	n.spec.CheckpointEvery = 0 // a promoted index checkpoints when told to
	s.rejoin(p, n)
	s.startReplica(p)
}

// fault breaks p's replication stream — cut, bit-flipped or stalled —
// and holds the link down while the primary takes writes and a
// checkpoint, so the replica must bootstrap afresh; the first
// connection after carries a second fault, in a seeded mode, in the
// HTTP header, the preamble or the image (faultAt).
func (s *sim) fault(p *simPair) {
	p.link.setDown(true)
	p.link.trip(faultMode(s.rng.Intn(3)))
	r := p.replica.inst.repl
	s.await(p.replica, "the stream to break", func() bool { return !r.status().connected })
	for range 1 + s.rng.Intn(3) {
		if s.rng.Intn(2) == 0 {
			s.write([]wal.Record{s.newRecord()}, http.StatusOK)
		} else {
			s.write([]wal.Record{s.victim()}, http.StatusOK)
		}
	}
	s.checkpoint(p.primary)
	p.link.armNext(faultMode(s.rng.Intn(3)), faultAt(s.rng.Int63n(4096), s.kind))
	p.link.setDown(false)
}

// A bootstrap stream opens with the HTTP response header, the first
// chunk's size line, the preamble frame (its length and checksum words,
// then preambleLen bytes) and the image. runSim checks these offsets on
// each pair's first bootstrap.
const (
	simHeaderLen  = 168
	simPreambleAt = 173
	simImageAt    = simPreambleAt + 8 + preambleLen
)

// faultAt maps an offset drawn below 4096 into the header, the preamble
// or the image of a bootstrap stream. The kind turns the region, so each
// fault op of a tier-1 seed faults all three across the kinds in its
// mode, and the seeds' fault ops draw every mode.
func faultAt(off int64, kind index.Kind) int64 {
	switch (off + int64(kind)) % 3 {
	case 0:
		return off % simHeaderLen
	case 1:
		return simPreambleAt + off%(simImageAt-simPreambleAt)
	}
	return simImageAt + off%(4096-simImageAt)
}

func (s *sim) await(n *simNode, what string, done func() bool) {
	for deadline := time.Now().Add(15 * time.Second); !done(); time.Sleep(200 * time.Microsecond) {
		if time.Now().After(deadline) {
			s.fatalf(n, "timed out waiting for %s", what)
		}
	}
}

// settle waits until every replica has applied its primary's position
// and logged it as its primary did.
func (s *sim) settle() {
	for _, p := range s.pairs {
		s.catchUp(p)
		s.sameLog(p)
	}
}

func (s *sim) catchUp(p *simPair) {
	s.await(p.replica, "the replica to catch up", func() bool {
		pg, ps, pok := p.primary.inst.dur.position()
		rg, rs, rok := p.replica.inst.dur.position()
		return pok && rok && pg == rg && ps == rs
	})
}

// sameLog holds the replica's log of the generation both nodes are at
// to its primary's, byte for byte: the records the replica appends
// encode to exactly the frames the primary wrote. A replica that
// bootstrapped inside the generation logs only the records after its
// image, so its log is the primary's without that many leading frames.
// Its last append can trail its position, so the files get a while to
// agree. Images are not compared: the tree the replica builds record by
// record may take another shape than the one its primary STR-packed
// (DESIGN §8).
func (s *sim) sameLog(p *simPair) {
	gen, since, _ := p.primary.inst.dur.position()
	name := fmt.Sprintf("main.wal.%d", gen)
	d := p.replica.inst.dur
	var pw, rw []byte
	for deadline := time.Now().Add(15 * time.Second); ; time.Sleep(200 * time.Microsecond) {
		pw, rw = must(os.ReadFile(filepath.Join(p.primary.spec.Dir, name))), must(os.ReadFile(filepath.Join(d.spec.Dir, name)))
		d.mu.Lock()
		held := int(since - d.log.Records())
		d.mu.Unlock()
		if since == 0 && len(pw)+len(rw) == 0 || since > 0 && bytes.Equal(pw[held*len(pw)/int(since):], rw) {
			return
		}
		if time.Now().After(deadline) {
			s.fatalf(p.replica, "at %d/%d its %s (%d bytes, %d records before its image) is not its primary's (%d bytes)", gen, since, name, len(rw), held, len(pw))
		}
	}
}

func (s *sim) subscribe(rels topo.Set, ref geom.Rect, stream bool) {
	sub := &simSub{rels: rels, ref: ref, stream: stream}
	s.subs = append(s.subs, sub)
	for _, n := range s.nodes() {
		s.watch(n, sub)
	}
}

// watch subscribes sub on n. A stream's header line must carry the
// generation the table stood at: the batches it had published.
func (s *sim) watch(n *simNode, sub *simSub) {
	w := &simWatch{}
	if sub.stream {
		var names []string
		for _, r := range sub.rels.Relations() {
			names = append(names, r.String())
		}
		published := n.inst.watch.Counters().Batches
		w.stream = openWatch(s.t, n.url, WatchRequest{Index: "main", Relations: names, Ref: wireOf(sub.ref), Buffer: simBuffer})
		if w.start = w.stream.info.Generation; w.start != published {
			s.fatalf(n, "the watch stream opened at generation %d, after %d published batches", w.start, published)
		}
		w.snaps = n.snapshots()
	} else {
		ws, err := n.inst.watch.Subscribe(sub.ref, sub.rels, simBuffer)
		if err != nil {
			s.fatalf(n, "subscribe: %v", err)
		}
		w.sub, w.start = ws, ws.StartGen()
	}
	w.from = len(s.acked)
	n.subs[sub] = w
}

// bounds is the scan's MBR of everything stored.
func (s *sim) bounds() (b geom.Rect) {
	for _, r := range s.live {
		if b == (geom.Rect{}) {
			b = r.Rect
		}
		b = b.Union(r.Rect)
	}
	return b
}

// checkTree holds n's tree to the history's count and its invariants.
func (s *sim) checkTree(n *simNode) index.Index {
	idx := n.inst.ReadIndex()
	if idx == nil || !n.inst.Healthy() {
		s.fatalf(n, "no tree to serve (%s)", n.inst.FailReason())
	}
	if idx.Len() != len(s.live) {
		s.fatalf(n, "the tree holds %d objects, the history %d", idx.Len(), len(s.live))
	}
	if err := idx.(interface{ CheckInvariants() error }).CheckInvariants(); err != nil {
		s.fatalf(n, "%v", err)
	}
	return idx
}

func (s *sim) check() {
	bounds := RectToWire(s.bounds())
	for _, n := range s.nodes() {
		idx := s.checkTree(n)
		s.checkWatch(n)
		// A replica applies, logs and publishes record by record; a
		// bootstrap replaces its contents with none, so a step with one
		// is not counted.
		if n.base != nil && n.snapshots() == n.base[4] {
			c := n.inst.watch.Counters()
			if got, want := c.Evaluated+c.Pruned-n.base[0], uint64(len(n.subs)*len(s.acked)); got != want {
				s.fatalf(n, "the watch table evaluated or pruned %d (subscription, record) pairs, want %d subscriptions × %d records", got, len(n.subs), len(s.acked))
			}
			if got := n.srv.metrics.walRecords.Load() - n.base[1]; n.role != "twin" && got != uint64(len(s.acked)) {
				s.fatalf(n, "topod_wal_records_total rose by %d, want %d", got, len(s.acked))
			}
			want := uint64(s.commits)
			if n.role == "replica" {
				want = uint64(len(s.acked))
			}
			if got := n.inst.Generation() - n.base[2]; got != want {
				s.fatalf(n, "the generation advanced by %d, want %d (commits, or records on a replica)", got, want)
			}
		}
		if n.base != nil {
			s.invalidated += n.invalidations() - n.base[3]
		}
		if n.role == "primary" {
			if gen, since, _ := n.inst.dur.position(); gen != n.gen || since != n.since {
				s.fatalf(n, "the log is at %d/%d, want %d/%d", gen, since, n.gen, n.since)
			}
		}
		var infos []IndexInfo
		code, body := call(n.h, http.MethodGet, "/v1/indexes", nil)
		if json.Unmarshal(body, &infos) != nil || code != http.StatusOK || len(infos) != 1 || infos[0].Name != "main" || infos[0].Kind != s.kind.String() || !infos[0].Healthy ||
			infos[0].Durable != (n.role != "twin") || infos[0].Objects != len(s.live) || infos[0].Height != idx.Height() || infos[0].Bounds == nil || *infos[0].Bounds != bounds {
			s.fatalf(n, "/v1/indexes: HTTP %d %s", code, body)
		}
	}
	win := s.windows[1+s.step%(len(s.windows)-1)]
	rel := func() string { return topo.All()[s.rng.Intn(8)].String() }
	reqs := []QueryRequest{{Relations: []string{"not_disjoint"}, Ref: wireOf(s.windows[0])}}
	for _, r := range topo.All() {
		reqs = append(reqs, QueryRequest{Relations: []string{r.String()}, Ref: wireOf(win)})
	}
	reqs = append(reqs,
		QueryRequest{Relations: []string{"in"}, Ref: wireOf(win), Limit: 3},
		QueryRequest{Relations: []string{rel(), rel()}, Ref: wireOf(win), Relations2: []string{rel()}, Ref2: wireOf(s.windows[1+s.rng.Intn(3)])})
	for _, req := range reqs {
		s.compareQuery(req, nil)
	}
	s.compareKNN(geom.Point{X: s.rng.Float64() * 1000, Y: s.rng.Float64() * 1000}, 1+s.rng.Intn(8))
	s.compareJoin(topo.All()[1+s.rng.Intn(7)].String()) // disjoint would pair nearly everything
}

// checkWatch drains n's subscribers: each got exactly an enter for
// every insert and an exit for every delete acknowledged since it
// subscribed or the step began, whose configuration with its reference
// (ConfigOf) its set admits — or was ended by a replica's bootstrap and
// resubscribes.
func (s *sim) checkWatch(n *simNode) {
	for _, sub := range s.subs {
		w := n.subs[sub]
		cfgs := mbr.CandidatesSet(sub.rels)
		want, need := map[simEvent]int{}, 0
		for _, r := range s.acked[w.from:] {
			if cfgs.Has(mbr.ConfigOf(r.Rect, sub.ref)) {
				typ := watch.Enter
				if r.Op == wal.OpDelete {
					typ = watch.Exit
				}
				want[simEvent{typ.String(), simReg{r.OID, r.Rect}}]++
				need++
			}
		}
		if w.stream != nil && n.snapshots() != w.snaps {
			need = -1 // a bootstrap: wait for the terminal line
		}
		evs, end := s.events(n, w, need)
		if end != "" {
			if n.role != "replica" || end != watchResetReason {
				s.fatalf(n, "subscription %v %v ended: %q", sub.rels, sub.ref, end)
			}
			s.watch(n, sub)
			continue
		}
		got := map[simEvent]int{}
		for _, ev := range evs {
			got[ev]++
		}
		if !maps.Equal(got, want) {
			s.fatalf(n, "subscription %v %v: events %v, want %v", sub.rels, sub.ref, got, want)
		}
	}
}

// events takes what w received since it was last asked: the events an
// in-process subscription holds or, from a stream, lines until it has
// want events (want < 0: until its terminal line) and any that came
// with them. Generations must exceed w's start and never fall. end is
// why the server ended the subscription, "" while it is live.
func (s *sim) events(n *simNode, w *simWatch, want int) (got []simEvent, end string) {
	last := w.start + 1
	take := func(typ string, oid uint64, rect geom.Rect, gen uint64) {
		if gen < last {
			s.fatalf(n, "event of generation %d after %d on a subscription started at %d", gen, last, w.start)
		}
		got, last = append(got, simEvent{typ, simReg{oid, rect}}), gen
	}
	if w.stream == nil {
		for {
			select {
			case ev, ok := <-w.sub.Events():
				if !ok {
					return got, w.sub.EndReason()
				}
				take(ev.Type.String(), ev.OID, ev.Rect, ev.Gen)
			default:
				return got, ""
			}
		}
	}
	what := fmt.Sprintf("%d events on the watch stream", want)
	if want < 0 {
		what = "the watch stream's terminal line"
	}
	var lines []WatchLine
	var done bool
	s.await(n, what, func() bool {
		lines, done = w.stream.from(w.taken)
		return done || want >= 0 && len(lines) >= want
	})
	w.taken += len(lines)
	for _, l := range lines {
		if l.End != "" {
			return got, l.End
		}
		if l.OID == nil || l.Rect == nil || l.Gen == nil {
			s.fatalf(n, "watch stream line %+v", l)
		}
		take(l.Event, *l.OID, geom.R(l.Rect[0], l.Rect[1], l.Rect[2], l.Rect[3]), *l.Gen)
	}
	if done {
		s.fatalf(n, "the watch stream closed without a terminal line")
	}
	return got, ""
}

// ended holds every subscription of n, whose table has been closed, to
// reason: a stream's terminal line must carry it. It returns the events
// they received before it.
func (s *sim) ended(n *simNode, reason string) (got []simEvent) {
	for _, w := range n.subs {
		evs, end := s.events(n, w, -1)
		if end != reason {
			s.fatalf(n, "a subscription ended with %q, want %q", end, reason)
		}
		got = append(got, evs...)
	}
	return got
}

// answer is a response body as the hit contract compares it: the match
// lines sorted, and the trailer.
func answer(body []byte) (lines []string, trailer string) {
	all := strings.Split(strings.TrimSuffix(string(body), "\n"), "\n")
	lines = slices.Clone(all[:len(all)-1])
	slices.Sort(lines)
	return lines, all[len(all)-1]
}

// compareQuery holds the twin's answer to req to the scan and every
// other node's — or only the one given — to the twin's.
func (s *sim) compareQuery(req QueryRequest, only *simNode) {
	req.Index = "main"
	key := string(must(json.Marshal(req)))
	ask := func(n *simNode) []byte {
		code, body := call(n.h, http.MethodPost, "/v1/query", strings.NewReader(key))
		if code != http.StatusOK {
			s.fatalf(n, "query %s: HTTP %d %s", key, code, body)
		}
		return body
	}
	want := ask(s.twin)
	lines, trailer := answer(want)
	var tl QueryLine
	if err := json.Unmarshal([]byte(trailer), &tl); err != nil || tl.Stats == nil || tl.Stats.Candidates != len(lines) {
		s.fatalf(s.twin, "query %s: trailer %s after %d lines", key, trailer, len(lines))
	}
	filter, exact := s.scan(req)
	within := !slices.ContainsFunc(lines, func(l string) bool {
		_, ok := slices.BinarySearch(filter, l)
		return !ok
	})
	switch {
	case slices.Equal(lines, filter):
	case req.Limit > 0 && within && len(lines) == min(req.Limit, len(filter)):
	case req.Relations2 != nil && len(lines) == 0 && exact == 0:
		// The composition table proved the conjunction empty.
	default:
		s.fatalf(s.twin, "query %s answers %d lines %v, the scan %d %v", key, len(lines), lines, len(filter), filter)
	}
	nodes := s.nodes()[1:]
	if only != nil {
		nodes = []*simNode{only}
	}
	for _, n := range nodes {
		var hits uint64
		if n.cached() {
			hits = n.srv.cache.hits.Load()
		}
		got := ask(n)
		hit := n.cached() && n.srv.cache.hits.Load() > hits
		if !hit {
			n.filled[key] = s.writes
		}
		if !hit || n.filled[key] == s.writes {
			if !bytes.Equal(got, want) {
				s.fatalf(n, "query %s (hit %v) diverges from the twin's\ngot:  %s\nwant: %s", key, hit, got, want)
			}
			continue
		}
		s.survived++
		gotLines, gotTrailer := answer(got)
		var gt QueryLine
		if err := json.Unmarshal([]byte(gotTrailer), &gt); err != nil || gt.Stats == nil ||
			gt.Stats.Candidates != tl.Stats.Candidates || !slices.Equal(gotLines, lines) {
			s.fatalf(n, "query %s: a hit past a write holds another answer\ngot:  %s\nwant: %s", key, got, want)
		}
	}
}

// scan is the brute-force answer to req: the wire lines of the
// registrations the filter step must return, and how many satisfy the
// relations themselves (for rectangles, the configuration's relation).
func (s *sim) scan(req QueryRequest) (lines []string, exact int) {
	type term struct {
		rels topo.Set
		ref  geom.Rect
	}
	terms := []term{{must(ParseRelationSet(req.Relations)), must(RectFromWire(req.Ref))}}
	if req.Relations2 != nil {
		terms = append(terms, term{must(ParseRelationSet(req.Relations2)), must(RectFromWire(req.Ref2))})
	}
	for _, r := range s.live {
		filter, holds := true, true
		for _, t := range terms {
			k := mbr.ConfigOf(r.Rect, t.ref)
			filter = filter && mbr.CandidatesSet(t.rels).Has(k)
			holds = holds && t.rels.Has(k.Topo())
		}
		if filter {
			lines = append(lines, matchLine(r.OID, r.Rect))
		}
		if holds {
			exact++
		}
	}
	slices.Sort(lines)
	return lines, exact
}

func matchLine(oid uint64, r geom.Rect) string {
	w := RectToWire(r)
	return string(must(json.Marshal(QueryLine{OID: &oid, Rect: &w})))
}

// compareKNN holds the twin's k nearest to the distances the scan
// finds, and every other node's answer to the twin's bytes.
func (s *sim) compareKNN(p geom.Point, k int) {
	target := fmt.Sprintf("/v1/knn?index=main&k=%d&x=%v&y=%v", k, p.X, p.Y)
	code, want := call(s.twin.h, http.MethodGet, target, nil)
	var resp KNNResponse
	if err := json.Unmarshal(want, &resp); code != http.StatusOK || err != nil || len(resp.Neighbours) != min(k, len(s.live)) {
		s.fatalf(s.twin, "%s: HTTP %d %s", target, code, want)
	}
	var dists []float64
	live := map[simReg]bool{}
	for _, r := range s.live {
		dists = append(dists, r.Rect.DistToPoint(p))
		live[r] = true
	}
	slices.Sort(dists)
	for i, nb := range resp.Neighbours {
		r := geom.R(nb.Rect[0], nb.Rect[1], nb.Rect[2], nb.Rect[3])
		if !live[simReg{nb.OID, r}] || nb.Dist != dists[i] || r.DistToPoint(p) != nb.Dist {
			s.fatalf(s.twin, "%s: neighbour %d is %+v, the scan's %d-th distance %v", target, i, nb, i, dists[i])
		}
	}
	for _, n := range s.nodes()[1:] {
		if code, got := call(n.h, http.MethodGet, target, nil); code != http.StatusOK || !bytes.Equal(got, want) {
			s.fatalf(n, "%s: HTTP %d diverges from the twin's\ngot:  %s\nwant: %s", target, code, got, want)
		}
	}
}

// compareJoin holds the twin's self-join to every ordered pair of
// registrations of distinct oids the scan admits, and every other
// node's answer, in any order, to the twin's. R+-trees refuse a join.
func (s *sim) compareJoin(rel string) {
	req := JoinRequest{Relations: []string{rel}}
	code, want := call(s.twin.h, http.MethodPost, "/v1/join", jsonBody(req))
	if s.kind == index.KindRPlus {
		if code != http.StatusBadRequest {
			s.fatalf(s.twin, "join on an R+-tree: HTTP %d %s, want 400", code, want)
		}
		return
	}
	lines, trailer := answer(want)
	cfgs := mbr.CandidatesSet(must(ParseRelationSet(req.Relations)))
	rects := make([]string, len(s.live))
	for i, r := range s.live {
		rects[i] = string(must(json.Marshal(RectToWire(r.Rect))))
	}
	var pairs []string
	for i, a := range s.live {
		for j, b := range s.live {
			if a.OID != b.OID && cfgs.Has(mbr.ConfigOf(a.Rect, b.Rect)) {
				pairs = append(pairs, fmt.Sprintf(`{"left_oid":%d,"right_oid":%d,"left_rect":%s,"right_rect":%s}`, a.OID, b.OID, rects[i], rects[j]))
			}
		}
	}
	slices.Sort(pairs)
	var tl JoinLine
	if err := json.Unmarshal([]byte(trailer), &tl); code != http.StatusOK || err != nil || tl.Stats == nil || tl.Stats.Pairs != len(lines) || !slices.Equal(lines, pairs) {
		s.fatalf(s.twin, "join %s: HTTP %d, %d pairs (trailer %s), the scan %d", rel, code, len(lines), trailer, len(pairs))
	}
	for _, n := range s.nodes()[1:] {
		code, got := call(n.h, http.MethodPost, "/v1/join", jsonBody(req))
		gotLines, gotTrailer := answer(got)
		if code != http.StatusOK || gotTrailer != trailer || !slices.Equal(gotLines, lines) {
			s.fatalf(n, "join %s: HTTP %d diverges from the twin's: %d pairs, %s; want %d, %s", rel, code, len(gotLines), gotTrailer, len(lines), trailer)
		}
	}
}

func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// faultMode is what a faultConn does at its offset: truncate cuts the
// stream there (the reader sees the prefix, then an unexpected EOF),
// corrupt flips a bit of that byte and reads on (the image's and the
// frames' checksums must catch it), stall blocks until the follower's stall timeout closes the
// connection.
type faultMode int

const (
	faultTruncate faultMode = iota
	faultCorrupt
	faultStall
)

func (m faultMode) String() string {
	return [...]string{"truncate", "corrupt", "stall"}[m]
}

// faultConn is one replication connection with a read-side fault that
// fires at an exact inbound byte offset.
type faultConn struct {
	net.Conn
	mu      sync.Mutex
	mode    faultMode
	at, off int64  // the fault's offset (-1: none) and the bytes read so far
	head    []byte // the first simImageAt bytes read
	closed  chan struct{}
	once    sync.Once
}

// Close unblocks a stalled read and closes the connection.
func (c *faultConn) Close() error {
	c.once.Do(func() { close(c.closed) })
	return c.Conn.Close()
}

func (c *faultConn) Read(p []byte) (int, error) {
	c.mu.Lock()
	fire, mode := c.at >= 0 && c.off >= c.at, c.mode
	if fire {
		c.at = -1
	} else if c.at > c.off && int64(len(p)) > c.at-c.off {
		p = p[:c.at-c.off] // stop at the offset, so the fault fires exactly there
	}
	c.mu.Unlock()
	switch {
	case fire && mode == faultTruncate:
		_ = c.Conn.Close()
		return 0, io.ErrUnexpectedEOF
	case fire && mode == faultStall:
		<-c.closed
		return 0, net.ErrClosed
	}
	n, err := c.Conn.Read(p)
	c.mu.Lock()
	if fire && n > 0 {
		p[0] ^= 0x80
	}
	if len(c.head) < simImageAt {
		c.head = append(c.head, p[:min(n, simImageAt-len(c.head))]...)
	}
	c.off += int64(n)
	c.mu.Unlock()
	return n, err
}

// simLink is a replica's network path to its primary, the stream arm of
// the fault plan: it refuses connections while down, faults the live
// one, and arms a fault at an offset of the next.
type simLink struct {
	mu    sync.Mutex
	down  bool
	first *faultConn
	live  *faultConn
	next  *faultConn // holds only the mode and offset for the next connection
}

func (l *simLink) setDown(down bool) {
	l.mu.Lock()
	l.down = down
	l.mu.Unlock()
}

// trip fires mode on the live connection's next read.
func (l *simLink) trip(mode faultMode) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if c := l.live; c != nil {
		c.mu.Lock()
		c.mode, c.at = mode, c.off
		c.mu.Unlock()
	}
}

// firstHead is what the link's first connection read first.
func (l *simLink) firstHead() []byte {
	l.mu.Lock()
	c := l.first
	l.mu.Unlock()
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.head
}

func (l *simLink) armNext(mode faultMode, at int64) {
	l.mu.Lock()
	l.next = &faultConn{mode: mode, at: at}
	l.mu.Unlock()
}

func (l *simLink) client() *http.Client {
	var dialer net.Dialer
	return &http.Client{Transport: &http.Transport{
		DisableKeepAlives: true,
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			l.mu.Lock()
			defer l.mu.Unlock()
			if l.down {
				return nil, errors.New("link down")
			}
			conn, err := dialer.DialContext(ctx, network, addr)
			if err != nil {
				return nil, err
			}
			fc := &faultConn{Conn: conn, at: -1, closed: make(chan struct{})}
			if l.next != nil {
				fc.mode, fc.at, l.next = l.next.mode, l.next.at, nil
			}
			if l.first == nil {
				l.first = fc
			}
			l.live = fc
			return fc, nil
		},
	}}
}
