package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mbrtopo/internal/geom"
	"mbrtopo/internal/index"
	"mbrtopo/internal/retry"
	"mbrtopo/internal/topo"
	"mbrtopo/internal/wal"
	"mbrtopo/internal/workload"
)

// fastBackoff keeps replication tests quick: reconnects retry within
// milliseconds instead of the production-scale schedule.
var fastBackoff = retry.Policy{Base: 2 * time.Millisecond, Cap: 50 * time.Millisecond}

// newReplPrimary boots a durable primary with n objects and an
// aggressive checkpoint cadence so live tests cross generation
// rotations quickly.
func newReplPrimary(t *testing.T, n, checkpointEvery int) (*Server, *httptest.Server, *workload.Dataset) {
	t.Helper()
	d := workload.NewDataset(workload.Medium, n, 0, 1995)
	srv := New(Config{ReplHeartbeat: 25 * time.Millisecond})
	spec := IndexSpec{
		Name: "main", Kind: index.KindRTree, PageSize: 512,
		Dir: t.TempDir(), Fsync: wal.SyncNever, CheckpointEvery: checkpointEvery,
	}
	if _, err := srv.AddIndex(spec, d.Items); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts, d
}

// newReplFollower boots a follower replicating "main" from primary.
// Pass a nil client to dial directly.
func newReplFollower(t *testing.T, primary string, client *http.Client, cfg FollowConfig) (*Server, *httptest.Server) {
	t.Helper()
	return newCachedReplFollower(t, Config{}, primary, client, cfg)
}

// newCachedReplFollower is newReplFollower with the server Config given.
func newCachedReplFollower(t *testing.T, scfg Config, primary string, client *http.Client, cfg FollowConfig) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(scfg)
	spec := IndexSpec{
		Name: "main", Kind: index.KindRTree, PageSize: 512,
		Dir: t.TempDir(), Fsync: wal.SyncNever, Follower: true,
	}
	if _, err := srv.AddIndex(spec, nil); err != nil {
		t.Fatal(err)
	}
	cfg.Primary = primary
	cfg.Client = client
	if cfg.Backoff == (retry.Policy{}) {
		cfg.Backoff = fastBackoff
	}
	if cfg.StallTimeout == 0 {
		cfg.StallTimeout = 500 * time.Millisecond
	}
	if cfg.Seed == 0 {
		cfg.Seed = 7
	}
	if err := srv.Follow(cfg); err != nil {
		t.Fatal(err)
	}
	// Close stops the follower loops, and runs before the httptest
	// servers close (LIFO): an open /v1/replicate stream would otherwise
	// block the primary's Close forever.
	t.Cleanup(func() { _ = srv.Close() })
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// waitCaughtUp blocks until the follower has applied exactly the
// primary's durable position.
func waitCaughtUp(t *testing.T, primary, follower *Server) {
	t.Helper()
	pinst, err := primary.instance("main")
	if err != nil {
		t.Fatal(err)
	}
	finst, err := follower.instance("main")
	if err != nil {
		t.Fatal(err)
	}
	r := finst.repl
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		gen, seq, ok := pinst.dur.position()
		st := r.status()
		if ok && st.bootstrapped && st.applied == (replPos{gen, seq}) {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	gen, seq, _ := pinst.dur.position()
	t.Fatalf("follower never caught up: applied %v, primary at %d/%d (status %+v)",
		r.status().applied, gen, seq, r.status())
}

// relationAnswers runs every one of the eight MBR relations over each
// reference window and returns the sorted distinct OIDs per (relation,
// window) pair.
func relationAnswers(t *testing.T, inst *Instance, refs []geom.Rect) map[string][]uint64 {
	t.Helper()
	proc := inst.ReadProc()
	if proc == nil {
		t.Fatal("instance has no read view")
	}
	out := make(map[string][]uint64)
	for _, rel := range topo.All() {
		for wi, ref := range refs {
			res, err := proc.QuerySetMBR(topo.NewSet(rel), ref)
			if err != nil {
				t.Fatalf("%s window %d: %v", rel, wi, err)
			}
			seen := make(map[uint64]bool, len(res.Matches))
			oids := make([]uint64, 0, len(res.Matches))
			for _, m := range res.Matches {
				if !seen[m.OID] {
					seen[m.OID] = true
					oids = append(oids, m.OID)
				}
			}
			sort.Slice(oids, func(i, j int) bool { return oids[i] < oids[j] })
			out[fmt.Sprintf("%s/%d", rel, wi)] = oids
		}
	}
	return out
}

// assertReplEqual compares primary and follower answers over all eight
// relations and the durability windows.
func assertReplEqual(t *testing.T, label string, primary, follower *Server) {
	t.Helper()
	pinst, _ := primary.instance("main")
	finst, _ := follower.instance("main")
	want := relationAnswers(t, pinst, durabilityWindows)
	got := relationAnswers(t, finst, durabilityWindows)
	for key, w := range want {
		g := got[key]
		if len(g) != len(w) {
			t.Fatalf("%s: %s: follower has %d matches, primary %d", label, key, len(g), len(w))
		}
		for i := range g {
			if g[i] != w[i] {
				t.Fatalf("%s: %s: oid[%d] = %d, want %d", label, key, i, g[i], w[i])
			}
		}
	}
}

// postStatus posts v as JSON and returns the HTTP status plus decoded
// error body (when not 2xx).
func postStatus(t *testing.T, url string, v any) (int, ErrorResponse) {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var er ErrorResponse
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode/100 != 2 {
		_ = json.Unmarshal(data, &er)
	}
	return resp.StatusCode, er
}

// mutatePrimary applies a deterministic churn of inserts and deletes
// through the primary's HTTP write path, crossing checkpoint
// rotations when n exceeds the checkpoint cadence.
func mutatePrimary(t *testing.T, base string, d *workload.Dataset, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if i%3 == 2 && i/3 < len(d.Items) {
			it := d.Items[i/3]
			rect := RectToWire(it.Rect)
			if st, er := postStatus(t, base+"/v1/delete", UpdateRequest{OID: it.OID, Rect: rect[:]}); st != http.StatusOK {
				t.Fatalf("delete %d: HTTP %d (%s)", it.OID, st, er.Error)
			}
			continue
		}
		x := float64(50 + (i*37)%900)
		y := float64(50 + (i*61)%900)
		rect := [4]float64{x, y, x + 4 + float64(i%13), y + 4 + float64(i%17)}
		oid := uint64(500000 + i)
		if st, er := postStatus(t, base+"/v1/insert", UpdateRequest{OID: oid, Rect: rect[:]}); st != http.StatusOK {
			t.Fatalf("insert %d: HTTP %d (%s)", oid, st, er.Error)
		}
	}
}

func TestReplBootstrapAndLiveDifferential(t *testing.T) {
	primary, pts, d := newReplPrimary(t, 300, 25)
	follower, _ := newReplFollower(t, pts.URL, nil, FollowConfig{})

	waitCaughtUp(t, primary, follower)
	assertReplEqual(t, "bootstrap", primary, follower)

	// 120 mutations at CheckpointEvery=25 cross several generation
	// rotations while the stream is live.
	mutatePrimary(t, pts.URL, d, 120)
	waitCaughtUp(t, primary, follower)
	assertReplEqual(t, "live tail", primary, follower)

	pinst, _ := primary.instance("main")
	finst, _ := follower.instance("main")
	if pinst.ReadIndex().Len() != finst.ReadIndex().Len() {
		t.Fatalf("object counts diverged: primary %d, follower %d",
			pinst.ReadIndex().Len(), finst.ReadIndex().Len())
	}

	// An index without a data directory has no log to stream.
	if _, err := primary.AddIndex(IndexSpec{Name: "scratch", Kind: index.KindRTree}, d.Items); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(pts.URL + "/v1/replicate?index=scratch")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "nothing to replicate") {
		t.Fatalf("/v1/replicate on a non-durable index: HTTP %d %s", resp.StatusCode, body)
	}
}

// TestFollowerCloseStopsReplication: Close on a replica stops its
// follower loops before it closes the indexes. A loop left streaming
// fails the next record's position check against the closed log,
// reconnects in bootstrap mode and publishes a new image and a fresh WAL
// on a closed server — so after Close one more write on the primary must
// leave the replica's log closed, its snapshot count and its data
// directory as they were.
func TestFollowerCloseStopsReplication(t *testing.T) {
	primary, pts, d := newReplPrimary(t, 200, 1000)
	follower, _ := newReplFollower(t, pts.URL, nil, FollowConfig{})
	mutatePrimary(t, pts.URL, d, 5)
	waitCaughtUp(t, primary, follower)

	finst, _ := follower.instance("main")
	f := finst.repl
	if err := follower.Close(); err != nil {
		t.Fatal(err)
	}
	listing := func() string {
		entries, err := os.ReadDir(finst.dur.spec.Dir)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for _, e := range entries {
			info, err := e.Info()
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&b, "%s %d %v\n", e.Name(), info.Size(), info.ModTime().UnixNano())
		}
		return b.String()
	}
	before, snapshots := listing(), f.status().snapshots

	mutatePrimary(t, pts.URL, d, 1)
	time.Sleep(150 * time.Millisecond) // the damage used to show within 20 ms

	finst.dur.mu.Lock()
	reopened := finst.dur.log != nil
	finst.dur.mu.Unlock()
	if reopened {
		t.Error("a follower loop reopened the WAL of a closed server")
	}
	if st := f.status(); st.connected || st.snapshots != snapshots {
		t.Errorf("after Close: connected %v, %d snapshots (had %d)", st.connected, st.snapshots, snapshots)
	}
	if after := listing(); after != before {
		t.Errorf("the data directory changed after Close:\n%s\nwas:\n%s", after, before)
	}
}

// TestReplReconnectResumes: a replica whose stream breaks reconnects
// from the position its durable state holds and gets just the record
// tail — no second image — while the primary's current generation
// still holds that position. Only a link held down across checkpoints
// costs one more bootstrap. The answers are right either way, so only
// the snapshot counts tell a resume from a bootstrap.
func TestReplReconnectResumes(t *testing.T) {
	primary, pts, _ := newReplPrimary(t, 300, -1) // checkpoints by hand only
	pinst, _ := primary.instance("main")
	var link simLink
	follower, _ := newReplFollower(t, pts.URL, link.client(), FollowConfig{})
	finst, _ := follower.instance("main")
	r := finst.repl
	oid := uint64(800000)
	insert := func(n int) {
		t.Helper()
		for range n {
			x := float64(oid % 900)
			if err := pinst.Insert(geom.R(x, x, x+3, x+5), oid); err != nil {
				t.Fatal(err)
			}
			oid++
		}
	}
	await := func(what string, done func() bool) {
		t.Helper()
		for deadline := time.Now().Add(15 * time.Second); !done(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s (status %+v)", what, r.status())
			}
		}
	}
	// A stream is connected once its snapshot, if any, is counted, and
	// the records inserted after that follow the snapshot on the stream:
	// once they are applied the primary has counted it too.
	snapshots := func(label string, want uint64) {
		t.Helper()
		await("a live stream", func() bool { return r.status().connected })
		insert(5)
		waitCaughtUp(t, primary, follower)
		if got, shipped := r.status().snapshots, primary.metrics.replSnapshotsShipped.Load(); got != want || shipped != want {
			t.Fatalf("%s: the replica loaded %d snapshots and the primary shipped %d, want %d", label, got, shipped, want)
		}
		assertReplEqual(t, label, primary, follower)
	}

	snapshots("bootstrapped", 1)
	// Every byte read so far is past the image: cut the live stream there.
	link.trip(faultTruncate)
	await("a reconnect", func() bool { return r.status().reconnects >= 1 })
	snapshots("after a cut stream", 1)

	link.setDown(true)
	link.trip(faultTruncate)
	await("the stream to break", func() bool { return !r.status().connected })
	for range 2 {
		insert(5)
		if err := pinst.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	link.setDown(false)
	snapshots("after two checkpoints without a link", 2)
}

// faultingClient returns an http.Client whose FIRST dialed connection
// gets a faultConn armed at the given inbound byte offset;
// subsequent connections are clean so recovery can converge.
func faultingClient(mode faultMode, at int64) *http.Client {
	var used atomic.Bool
	dialer := &net.Dialer{}
	return &http.Client{Transport: &http.Transport{
		DisableKeepAlives: true,
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			conn, err := dialer.DialContext(ctx, network, addr)
			if err != nil {
				return nil, err
			}
			if used.CompareAndSwap(false, true) {
				return &faultConn{Conn: conn, mode: mode, at: at, closed: make(chan struct{})}, nil
			}
			return conn, nil
		},
	}}
}

func TestReplFaultInjectionDifferential(t *testing.T) {
	// Offsets place the fault in the HTTP response header (3, 64), the
	// hello/early snapshot frames (600), the middle of the snapshot
	// (4096), and the live record tail (1 << 20 — past any plausible
	// 300-object snapshot, so it trips only once mutations flow).
	offsets := []int64{3, 64, 600, 4096, 1 << 20}
	modes := []faultMode{faultTruncate, faultCorrupt, faultStall}
	for _, mode := range modes {
		for _, at := range offsets {
			t.Run(fmt.Sprintf("%s@%d", mode, at), func(t *testing.T) {
				t.Parallel()
				primary, pts, d := newReplPrimary(t, 300, 25)
				follower, _ := newReplFollower(t, pts.URL, faultingClient(mode, at), FollowConfig{})

				waitCaughtUp(t, primary, follower)
				mutatePrimary(t, pts.URL, d, 60)
				waitCaughtUp(t, primary, follower)
				assertReplEqual(t, fmt.Sprintf("%s@%d", mode, at), primary, follower)
			})
		}
	}
}

func TestReplReadyzLagGating(t *testing.T) {
	readyz := func(base string) (int, ReadyResponse) {
		resp, err := http.Get(base + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var rr ReadyResponse
		if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, rr
	}

	t.Run("unreachable primary", func(t *testing.T) {
		// A follower that can never bootstrap must report not-ready, not
		// serve an empty index.
		follower, fts := newReplFollower(t, "http://127.0.0.1:1", nil, FollowConfig{})
		st, rr := readyz(fts.URL)
		if st != http.StatusServiceUnavailable {
			t.Fatalf("readyz = HTTP %d, want 503", st)
		}
		if rr.Role != "follower" || rr.Ready {
			t.Fatalf("readyz = %+v, want not-ready follower", rr)
		}
		if len(rr.Indexes) != 1 || rr.Indexes[0].Reason == "" {
			t.Fatalf("readyz indexes = %+v, want a reason", rr.Indexes)
		}
		// Reads are refused too: there is nothing correct to answer.
		qst, _ := postStatus(t, fts.URL+"/v1/query", QueryRequest{Relations: []string{"overlap"}, Ref: []float64{0, 0, 10, 10}})
		if qst != http.StatusServiceUnavailable {
			t.Fatalf("query on empty follower = HTTP %d, want 503", qst)
		}
		_ = follower
	})

	t.Run("lag gate opens and closes", func(t *testing.T) {
		primary, pts, _ := newReplPrimary(t, 100, 25)
		follower, fts := newReplFollower(t, pts.URL, nil, FollowConfig{MaxLagWall: 250 * time.Millisecond})
		waitCaughtUp(t, primary, follower)

		st, rr := readyz(fts.URL)
		if st != http.StatusOK || !rr.Ready || rr.Role != "follower" {
			t.Fatalf("caught-up readyz = HTTP %d %+v, want ready follower", st, rr)
		}
		if len(rr.Indexes) != 1 || !rr.Indexes[0].Connected {
			t.Fatalf("caught-up readyz indexes = %+v, want connected", rr.Indexes)
		}

		// Kill the primary; once nothing has been heard for MaxLagWall
		// the follower must stop reporting ready.
		pts.CloseClientConnections()
		pts.Close()
		deadline := time.Now().Add(10 * time.Second)
		for {
			st, rr = readyz(fts.URL)
			if st == http.StatusServiceUnavailable {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("readyz stayed HTTP %d after primary death: %+v", st, rr)
			}
			time.Sleep(20 * time.Millisecond)
		}
		if rr.Ready || rr.Indexes[0].Reason == "" {
			t.Fatalf("post-death readyz = %+v, want not-ready with reason", rr)
		}
		// Queries keep answering from the (stale but correct) replica.
		qst, _ := postStatus(t, fts.URL+"/v1/query", QueryRequest{Relations: []string{"overlap"}, Ref: []float64{0, 0, 1000, 1000}})
		if qst != http.StatusOK {
			t.Fatalf("query on stale follower = HTTP %d, want 200", qst)
		}
	})
}

func TestReplPromote(t *testing.T) {
	primary, pts, d := newReplPrimary(t, 200, 25)
	follower, fts := newReplFollower(t, pts.URL, nil, FollowConfig{})
	mutatePrimary(t, pts.URL, d, 30)
	waitCaughtUp(t, primary, follower)

	pinst, _ := primary.instance("main")
	wantLen := pinst.ReadIndex().Len()

	// Mutations on a follower are refused with the primary's address.
	rect := [4]float64{1, 1, 2, 2}
	st, er := postStatus(t, fts.URL+"/v1/insert", UpdateRequest{OID: 900001, Rect: rect[:]})
	if st != http.StatusForbidden {
		t.Fatalf("insert on follower = HTTP %d, want 403", st)
	}
	if er.Primary != pts.URL {
		t.Fatalf("403 names primary %q, want %q", er.Primary, pts.URL)
	}
	if st, _ := postStatus(t, fts.URL+"/v1/bulk?index=main", []BulkLine{}); st != http.StatusForbidden {
		t.Fatalf("bulk on follower = HTTP %d, want 403", st)
	}

	// Promoting a plain primary is a conflict.
	if st, _ := postStatus(t, pts.URL+"/v1/promote", struct{}{}); st != http.StatusConflict {
		t.Fatalf("promote on primary = HTTP %d, want 409", st)
	}

	// Hard-kill the primary, promote, and write.
	pts.CloseClientConnections()
	pts.Close()
	if st, er := postStatus(t, fts.URL+"/v1/promote", struct{}{}); st != http.StatusOK {
		t.Fatalf("promote = HTTP %d (%s)", st, er.Error)
	}
	// Idempotent.
	if st, _ := postStatus(t, fts.URL+"/v1/promote", struct{}{}); st != http.StatusOK {
		t.Fatalf("second promote = HTTP %d, want 200", st)
	}

	st, er = postStatus(t, fts.URL+"/v1/insert", UpdateRequest{OID: 900001, Rect: rect[:]})
	if st != http.StatusOK {
		t.Fatalf("insert after promote = HTTP %d (%s)", st, er.Error)
	}

	// No lost or double-applied record: everything the primary had at
	// kill time plus exactly the one new insert.
	finst, _ := follower.instance("main")
	if got := finst.ReadIndex().Len(); got != wantLen+1 {
		t.Fatalf("promoted index holds %d objects, want %d", got, wantLen+1)
	}
	res, err := finst.ReadProc().QuerySetMBR(topo.NewSet(topo.Equal), geom.R(1, 1, 2, 2))
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, m := range res.Matches {
		found = found || m.OID == 900001
	}
	if !found {
		t.Fatal("promoted index does not serve the post-promotion insert")
	}

	// The role is now reported as promoted and readyz no longer gates
	// on a dead primary.
	resp, err := http.Get(fts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rr ReadyResponse
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || !rr.Ready || rr.Role != "promoted" {
		t.Fatalf("post-promote readyz = HTTP %d %+v, want ready promoted", resp.StatusCode, rr)
	}
}

// TestReplWALAppendFailure is the regression test for the append-error
// path: once a WAL write fails the index answers 503 — it must never
// ack a mutation it could not log, and must not serve reads from state
// that is ahead of its own log.
func TestReplWALAppendFailure(t *testing.T) {
	var writes atomic.Int64
	srv := New(Config{})
	spec := IndexSpec{
		Name: "main", Kind: index.KindRTree, PageSize: 512,
		Dir: t.TempDir(), Fsync: wal.SyncNever,
	}
	d := workload.NewDataset(workload.Medium, 50, 0, 3)
	inst, err := srv.AddIndex(spec, d.Items)
	if err != nil {
		t.Fatal(err)
	}
	inst.dur.faults = &faultPlan{walWrite: func(off int64, n int) error {
		if writes.Add(1) > 3 {
			return fmt.Errorf("injected disk failure")
		}
		return nil
	}}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	rect := [4]float64{5, 5, 6, 6}
	okWrites, failed := 0, false
	for i := 0; i < 6; i++ {
		st, _ := postStatus(t, ts.URL+"/v1/insert", UpdateRequest{OID: uint64(700000 + i), Rect: rect[:]})
		if st == http.StatusOK {
			if failed {
				t.Fatalf("insert %d succeeded after a WAL append failure", i)
			}
			okWrites++
			continue
		}
		failed = true
	}
	if !failed {
		t.Fatalf("no insert failed despite the injected WAL error (%d ok)", okWrites)
	}

	// The index is now permanently unhealthy: mutations and queries 503,
	// and readiness reflects it.
	if st, _ := postStatus(t, ts.URL+"/v1/insert", UpdateRequest{OID: 799999, Rect: rect[:]}); st != http.StatusServiceUnavailable {
		t.Fatalf("insert on unhealthy index = HTTP %d, want 503", st)
	}
	if st, _ := postStatus(t, ts.URL+"/v1/query", QueryRequest{Relations: []string{"overlap"}, Ref: []float64{0, 0, 10, 10}}); st != http.StatusServiceUnavailable {
		t.Fatalf("query on unhealthy index = HTTP %d, want 503", st)
	}
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz = HTTP %d, want 503", resp.StatusCode)
	}
	if inst.Healthy() {
		t.Fatal("instance still reports healthy after WAL append failure")
	}
}
