package server

import (
	"bytes"
	"context"
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
// and count to a brute-force scan of the acknowledged history, and
// every node's answers to the twin's bytes. A failure names the seed,
// the configuration and the step, and the go test -run that replays it.

// simSeeds are the tier-1 seeds: FuzzSim's corpus, which every go test
// runs.
var simSeeds = []int64{1, 2}

// FuzzSim runs the simulator over all three tree kinds per seed. A seed
// the fuzzer finds failing replays from the file it writes under
// testdata/fuzz/FuzzSim, through the same go test -run.
func FuzzSim(f *testing.F) {
	for _, seed := range simSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		for _, kind := range index.AllKinds() {
			t.Run(kindName(kind), func(t *testing.T) {
				t.Parallel()
				runSim(t, seed, kind)
			})
		}
	})
}

// simDeck is one run's op stream before its seed shuffles it: every op
// at least once, writes the most often.
var simDeck = strings.Fields(strings.Repeat("insert ", 14) + strings.Repeat("delete ", 8) +
	"bulk bulk bulk pile refused subscribe subscribe subscribe unsubscribe unsubscribe checkpoint checkpoint " +
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
	// records and generation (a node booted during the step has none).
	base *[3]uint64
	// gen and since are where a primary's log must be: its checkpoint
	// generation and the records logged since (DESIGN §8).
	gen, since uint64
}

func (n *simNode) cached() bool { return n.srv.cache != nil }

// simSub is one subscription the simulated clients hold on every node:
// in process, or as a POST /v1/watch stream.
type simSub struct {
	rels   topo.Set
	ref    geom.Rect
	stream bool
}

// simWatch is a node's subscription, with its members when the step
// started or, when it subscribed later, then. start is its StartGen or
// its stream's header generation; a stream also keeps how many of its
// lines were taken and, on a replica, the snapshots loaded when it
// opened: a bootstrap since must have ended it.
type simWatch struct {
	sub    *watch.Subscription
	stream *watchStream
	start  uint64
	taken  int
	snaps  uint64
	before []uint64
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
	live    map[uint64]geom.Rect // the acknowledged history
	nextOID uint64
	windows []geom.Rect // [0] is the whole world
	twin    *simNode
	pairs   [2]*simPair
	subs    []*simSub
	// writes counts acknowledged writes, commits and records those of
	// this step; survived counts cached hits checked after a write passed.
	writes, commits, records, survived int
}

func runSim(t *testing.T, seed int64, kind index.Kind) {
	s := &sim{t: t, seed: seed, kind: kind, rng: rand.New(rand.NewSource(seed)), live: map[uint64]geom.Rect{}, nextOID: 1 << 20}
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
			if strings.Count(t.Name(), "/") == 2 { // a corpus seed: FuzzSim/seed#N/kind
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
		p.front = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			p.route.Load().(http.Handler).ServeHTTP(w, r)
		}))
		t.Cleanup(p.front.Close)
		pspec := spec
		pspec.Dir, pspec.Fsync, pspec.CheckpointEvery = t.TempDir(), wal.SyncNever, 7
		p.primary = s.boot("primary", Config{CacheSize: 256 * i, ReplHeartbeat: 25 * time.Millisecond}, pspec)
		p.primary.gen = 1
		if inst := p.primary.inst; !inst.Durable() || inst.Recovered || inst.Backend() != "paged" {
			s.fatalf(p.primary, "fresh build: durable %v, recovered %v, backend %q", inst.Durable(), inst.Recovered, inst.Backend())
		}
		assertTwoFiles(t, "fresh build", pspec.Dir, "main")
		p.route.Store(p.primary.h)
		s.pairs[i] = p
	}
	s.write(items, http.StatusOK) // an empty tree packs a batch (STR)
	for _, p := range s.pairs {
		s.startReplica(p)
	}
	s.settle()
	s.subscribe(topo.NotDisjoint, s.windows[0], true)
	s.subscribe(topo.NewSet(topo.Meet), s.windows[1], false)

	deck := slices.Clone(simDeck)
	s.rng.Shuffle(len(deck), func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
	s.op = "boot"
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
	ts := httptest.NewServer(n.h)
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
	s.records, s.commits = 0, 0
	for _, n := range s.nodes() {
		for sub, w := range n.subs {
			w.before = s.members(sub)
		}
		c := n.inst.watch.Counters()
		n.base = &[3]uint64{c.Evaluated + c.Pruned, n.srv.metrics.walRecords.Load(), n.inst.Generation()}
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

// victim deletes a stored object.
func (s *sim) victim() wal.Record {
	oids := slices.Sorted(maps.Keys(s.live))
	oid := oids[s.rng.Intn(len(oids))]
	return wal.Record{Op: wal.OpDelete, OID: oid, Rect: s.live[oid]}
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
		if r.Op == wal.OpInsert {
			s.live[r.OID] = r.Rect
		} else {
			delete(s.live, r.OID)
		}
	}
	s.writes++
	s.commits++
	s.records += len(recs)
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

// fills runs readers of the whole world on the cached pair while its
// primary takes six inserts back to back and its replica applies them,
// so fills are in flight at every commit; then the others take them,
// and both cached nodes must answer with all of them (two rounds). A
// fill that pinned the tree before a commit and stored its answer after
// the commit invalidated would serve a stale hit.
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
// connection after carries a second fault at a seeded offset, which
// lands in the HTTP header, the preamble or the image.
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
	p.link.armNext(faultMode(s.rng.Intn(3)), s.rng.Int63n(4096))
	p.link.setDown(false)
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
		if n.inst.repl != nil {
			w.snaps = n.inst.repl.status().snapshots
		}
	} else {
		ws, err := n.inst.watch.Subscribe(sub.ref, sub.rels, simBuffer)
		if err != nil {
			s.fatalf(n, "subscribe: %v", err)
		}
		w.sub, w.start = ws, ws.StartGen()
	}
	w.before = s.members(sub)
	n.subs[sub] = w
}

// members is the scan's answer to a subscription: the objects whose
// configuration against its reference admits one of its relations.
func (s *sim) members(sub *simSub) []uint64 {
	cfgs := mbr.CandidatesSet(sub.rels)
	var out []uint64
	for oid, r := range s.live {
		if cfgs.Has(mbr.ConfigOf(r, sub.ref)) {
			out = append(out, oid)
		}
	}
	slices.Sort(out)
	return out
}

// bounds is the scan's MBR of everything stored.
func (s *sim) bounds() (b geom.Rect) {
	for _, r := range s.live {
		if b == (geom.Rect{}) {
			b = r
		}
		b = b.Union(r)
	}
	return b
}

func (s *sim) check() {
	for _, n := range s.nodes() {
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
		s.checkWatch(n)
		if n.base != nil && n.role != "replica" {
			c := n.inst.watch.Counters()
			if got, want := c.Evaluated+c.Pruned-n.base[0], uint64(len(n.subs)*s.records); got != want {
				s.fatalf(n, "the watch table evaluated or pruned %d (subscription, record) pairs, want %d subscriptions × %d records", got, len(n.subs), s.records)
			}
			if got := n.srv.metrics.walRecords.Load() - n.base[1]; n.role == "primary" && got != uint64(s.records) {
				s.fatalf(n, "topod_wal_records_total rose by %d, want %d", got, s.records)
			}
			if got := n.inst.Generation() - n.base[2]; got != uint64(s.commits) {
				s.fatalf(n, "the generation advanced by %d, want %d commits", got, s.commits)
			}
		}
		if n.role == "primary" {
			if gen, since, _ := n.inst.dur.position(); gen != n.gen || since != n.since {
				s.fatalf(n, "the log is at %d/%d, want %d/%d", gen, since, n.gen, n.since)
			}
		}
		var infos []IndexInfo
		code, body := call(n.h, http.MethodGet, "/v1/indexes", nil)
		if json.Unmarshal(body, &infos) != nil || code != http.StatusOK || len(infos) != 1 || infos[0].Kind != s.kind.String() || !infos[0].Healthy ||
			infos[0].Durable != (n.role != "twin") || infos[0].Objects != len(s.live) || infos[0].Height != idx.Height() || infos[0].Bounds == nil || *infos[0].Bounds != RectToWire(s.bounds()) {
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

// checkWatch drains n's subscribers: each got exactly the enter and
// exit events of the scan's difference over the step, or was ended by
// a replica's bootstrap and resubscribes.
func (s *sim) checkWatch(n *simNode) {
	for _, sub := range s.subs {
		w := n.subs[sub]
		var want []string
		after := s.members(sub)
		for _, d := range []struct {
			typ      watch.EventType
			from, to []uint64
		}{{watch.Enter, w.before, after}, {watch.Exit, after, w.before}} {
			for _, oid := range d.to {
				if _, ok := slices.BinarySearch(d.from, oid); !ok {
					want = append(want, fmt.Sprintf("%s %d", d.typ, oid))
				}
			}
		}
		need := len(want)
		if w.stream != nil && n.inst.repl != nil && n.inst.repl.status().snapshots != w.snaps {
			need = -1 // a bootstrap: wait for the terminal line
		}
		got, end := s.events(n, w, need)
		if end != "" {
			if n.role != "replica" || end != watchResetReason {
				s.fatalf(n, "subscription %v %v ended: %q", sub.rels, sub.ref, end)
			}
			s.watch(n, sub)
			continue
		}
		slices.Sort(got)
		slices.Sort(want)
		if !slices.Equal(got, want) {
			s.fatalf(n, "subscription %v %v: events %v, the scan's difference %v", sub.rels, sub.ref, got, want)
		}
	}
}

// events takes what w received since it was last asked: the events an
// in-process subscription holds or, from a stream, lines until it has
// want events (want < 0: until its terminal line) and any that came
// with them. Generations must exceed w's start and never fall. end is
// why the server ended the subscription, "" while it is live.
func (s *sim) events(n *simNode, w *simWatch, want int) (got []string, end string) {
	last := w.start + 1
	take := func(typ string, oid, gen uint64) {
		if gen < last {
			s.fatalf(n, "event of generation %d after %d on a subscription started at %d", gen, last, w.start)
		}
		got, last = append(got, fmt.Sprintf("%s %d", typ, oid)), gen
	}
	if w.stream == nil {
		for {
			select {
			case ev, ok := <-w.sub.Events():
				if !ok {
					return got, w.sub.EndReason()
				}
				take(ev.Type.String(), ev.OID, ev.Gen)
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
		if l.OID == nil || l.Gen == nil {
			s.fatalf(n, "watch stream line %+v", l)
		}
		take(l.Event, *l.OID, *l.Gen)
	}
	if done {
		s.fatalf(n, "the watch stream closed without a terminal line")
	}
	return got, ""
}

// ended holds every subscription of n, whose table has been closed, to
// reason: a stream's terminal line must carry it. It returns the events
// they received before it.
func (s *sim) ended(n *simNode, reason string) (got []string) {
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

// scan is the brute-force answer to req: the wire lines of the objects
// the filter step must return, and how many objects satisfy the
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
	for oid, r := range s.live {
		filter, holds := true, true
		for _, t := range terms {
			k := mbr.ConfigOf(r, t.ref)
			filter = filter && mbr.CandidatesSet(t.rels).Has(k)
			holds = holds && t.rels.Has(k.Topo())
		}
		if filter {
			lines = append(lines, matchLine(oid, r))
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
	for _, r := range s.live {
		dists = append(dists, r.DistToPoint(p))
	}
	slices.Sort(dists)
	for i, nb := range resp.Neighbours {
		if r, ok := s.live[nb.OID]; !ok || RectToWire(r) != nb.Rect || nb.Dist != dists[i] || r.DistToPoint(p) != nb.Dist {
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
// distinct objects the scan admits, and every other node's answer, in
// any order, to the twin's. R+-trees refuse a join.
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
	rects := map[uint64]string{}
	for oid, r := range s.live {
		rects[oid] = string(must(json.Marshal(RectToWire(r))))
	}
	var pairs []string
	for a, ra := range s.live {
		for b, rb := range s.live {
			if a != b && cfgs.Has(mbr.ConfigOf(ra, rb)) {
				pairs = append(pairs, fmt.Sprintf(`{"left_oid":%d,"right_oid":%d,"left_rect":%s,"right_rect":%s}`, a, b, rects[a], rects[b]))
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
	at, off int64 // the fault's offset (-1: none) and the bytes read so far
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
	c.off += int64(n)
	c.mu.Unlock()
	return n, err
}

// simLink is a replica's network path to its primary, the stream arm of
// the fault plan: it refuses connections while down, faults the live
// one, and arms a fault at an offset of the next.
type simLink struct {
	mu   sync.Mutex
	down bool
	live *faultConn
	next *faultConn // holds only the mode and offset for the next connection
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
			l.live = fc
			return fc, nil
		},
	}}
}
