package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"mbrtopo/internal/geom"
	"mbrtopo/internal/index"
	"mbrtopo/internal/topo"
	"mbrtopo/internal/wal"
)

// watchStream is one open /v1/watch NDJSON stream: the opening info
// line read synchronously, every later line collected by a background
// reader until the server's terminal End line (or EOF).
type watchStream struct {
	info WatchInfo

	mu     sync.Mutex
	events []WatchLine
	end    string

	done chan struct{}
}

func openWatch(t *testing.T, baseURL string, req WatchRequest) *watchStream {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatalf("marshal watch request: %v", err)
	}
	resp, err := http.Post(baseURL+"/v1/watch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/watch: %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("POST /v1/watch: status %d: %s", resp.StatusCode, msg)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("watch Content-Type = %q, want application/x-ndjson", ct)
	}
	if cc := resp.Header.Get("Cache-Control"); cc != "no-cache" {
		t.Fatalf("watch Cache-Control = %q, want no-cache", cc)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	if !sc.Scan() {
		resp.Body.Close()
		t.Fatalf("watch stream closed before the info line: %v", sc.Err())
	}
	var first WatchLine
	if err := json.Unmarshal(sc.Bytes(), &first); err != nil || first.Watch == nil {
		resp.Body.Close()
		t.Fatalf("bad watch info line %q: %v", sc.Text(), err)
	}
	ws := &watchStream{info: *first.Watch, done: make(chan struct{})}
	go func() {
		defer close(ws.done)
		defer resp.Body.Close()
		for sc.Scan() {
			var line WatchLine
			if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
				return
			}
			ws.mu.Lock()
			ws.events = append(ws.events, line)
			if line.End != "" {
				ws.end = line.End
			}
			ws.mu.Unlock()
			if line.End != "" {
				return
			}
		}
	}()
	return ws
}

// wait blocks until the stream's reader finished (terminal line or
// disconnect) and returns the collected lines plus the End reason.
func (ws *watchStream) wait(t *testing.T) ([]WatchLine, string) {
	t.Helper()
	select {
	case <-ws.done:
	case <-time.After(10 * time.Second):
		t.Fatalf("watch stream %d did not terminate", ws.info.ID)
	}
	ws.mu.Lock()
	defer ws.mu.Unlock()
	return ws.events, ws.end
}

// from returns the lines after the first i, the terminal one included,
// and whether the reader has finished.
func (ws *watchStream) from(i int) ([]WatchLine, bool) {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	select {
	case <-ws.done:
		return ws.events[i:], true
	default:
		return ws.events[i:], false
	}
}

// watchSub pairs a subscription's wire shape with its oracle inputs.
type watchSub struct {
	names []string
	rels  topo.Set
	ref   geom.Rect
}

func postJSON(t *testing.T, url string, v any) {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshal %T: %v", v, err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		t.Fatalf("POST %s: status %d: %s", url, resp.StatusCode, msg)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
}

func postBulkLines(t *testing.T, baseURL string, lines []BulkLine) {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, l := range lines {
		if err := enc.Encode(l); err != nil {
			t.Fatalf("encode bulk line: %v", err)
		}
	}
	resp, err := http.Post(baseURL+"/v1/bulk", "application/x-ndjson", &buf)
	if err != nil {
		t.Fatalf("POST /v1/bulk: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		t.Fatalf("POST /v1/bulk: status %d: %s", resp.StatusCode, msg)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
}

// oracleSet answers a subscription with the offline engine: the oids
// whose MBR configuration admits one of the subscribed relations —
// exactly the filter-candidate set of QuerySetMBR.
func oracleSet(t *testing.T, inst *Instance, sub watchSub) map[uint64]bool {
	t.Helper()
	res, err := inst.ReadProc().QuerySetMBR(sub.rels, sub.ref)
	if err != nil {
		t.Fatalf("oracle query: %v", err)
	}
	out := make(map[uint64]bool, len(res.Matches))
	for _, m := range res.Matches {
		out[m.OID] = true
	}
	return out
}

// TestWatchDifferential drives a randomized mutation trace through the
// HTTP write path (/v1/insert, /v1/delete, /v1/bulk) with live
// /v1/watch streams open, then checks, for every subscription and all
// three tree kinds (plus a durable tree), that the membership
// reconstructed from the event stream equals the diff of the
// before/after QuerySetMBR answers — and that every (subscription,
// record) pair was either pruned by the subscription R-tree or
// evaluated.
func TestWatchDifferential(t *testing.T) {
	cases := []struct {
		name    string
		kind    index.Kind
		durable bool
	}{
		{"rtree", index.KindRTree, false},
		{"rplus", index.KindRPlus, false},
		{"rstar", index.KindRStar, false},
		{"rtree-durable", index.KindRTree, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			runWatchDifferential(t, tc.kind, tc.durable)
		})
	}
}

func runWatchDifferential(t *testing.T, kind index.Kind, durable bool) {
	rng := rand.New(rand.NewSource(7))
	// A quarter of the objects sit with their x-extent strictly inside
	// the contains-subscription's reference band: touching it, never
	// containing it.
	randRect := func() geom.Rect {
		if rng.Intn(4) == 0 {
			x := 205 + rng.Float64()*20
			w := 5 + rng.Float64()*25
			y := rng.Float64() * 500
			h := 1 + rng.Float64()*80
			return geom.R(x, y, x+w, y+h)
		}
		x := rng.Float64() * 550
		y := rng.Float64() * 550
		return geom.R(x, y, x+1+rng.Float64()*60, y+1+rng.Float64()*60)
	}

	var items []index.Item
	live := make(map[uint64]geom.Rect)
	nextOID := uint64(1)
	for i := 0; i < 40; i++ {
		r := randRect()
		items = append(items, index.Item{Rect: r, OID: nextOID})
		live[nextOID] = r
		nextOID++
	}

	srv := New(Config{})
	spec := IndexSpec{Name: "main", Kind: kind}
	if durable {
		spec.Dir = t.TempDir()
		spec.Fsync = wal.SyncNever
		spec.CheckpointEvery = 200 // force rotations mid-trace
	}
	inst, err := srv.AddIndex(spec, items)
	if err != nil {
		t.Fatalf("AddIndex: %v", err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close()

	subs := []watchSub{
		{names: []string{"not_disjoint"}, ref: geom.R(100, 100, 300, 300)},
		{names: []string{"contains"}, ref: geom.R(200, 200, 260, 260)},
		{names: []string{"in"}, ref: geom.R(50, 50, 600, 600)},
		{names: []string{"meet"}, ref: geom.R(300, 100, 500, 250)},
		{names: []string{"disjoint"}, ref: geom.R(0, 0, 80, 80)},
		{names: []string{"equal", "overlap"}, ref: geom.R(120, 300, 180, 420)},
	}
	streams := make([]*watchStream, len(subs))
	baselines := make([]map[uint64]bool, len(subs))
	for i := range subs {
		subs[i].rels, err = ParseRelationSet(subs[i].names)
		if err != nil {
			t.Fatalf("relation set %v: %v", subs[i].names, err)
		}
		streams[i] = openWatch(t, ts.URL, WatchRequest{
			Relations: subs[i].names,
			Ref:       []float64{subs[i].ref.Min.X, subs[i].ref.Min.Y, subs[i].ref.Max.X, subs[i].ref.Max.Y},
			Buffer:    4096,
		})
	}
	// The trace has not started, so the index state each stream opened
	// against is exactly the current state.
	for i := range subs {
		baselines[i] = oracleSet(t, inst, subs[i])
	}

	touched := 0 // records committed
	for step := 0; step < 200; step++ {
		if step%25 == 24 {
			var lines []BulkLine
			for j := 0; j < 5; j++ {
				r := randRect()
				w := RectToWire(r)
				lines = append(lines, BulkLine{OID: nextOID, Rect: w[:]})
				live[nextOID] = r
				nextOID++
			}
			postBulkLines(t, ts.URL, lines)
			touched += len(lines)
			continue
		}
		roll := rng.Float64()
		switch {
		case roll < 0.5 && len(live) > 0:
			// Move: over HTTP an update is a delete then an insert.
			oid := randLiveOID(rng, live)
			old := live[oid]
			ow := RectToWire(old)
			postJSON(t, ts.URL+"/v1/delete", UpdateRequest{OID: oid, Rect: ow[:]})
			nr := translateRect(rng, old)
			nw := RectToWire(nr)
			postJSON(t, ts.URL+"/v1/insert", UpdateRequest{OID: oid, Rect: nw[:]})
			live[oid] = nr
			touched += 2
		case roll < 0.8:
			r := randRect()
			w := RectToWire(r)
			postJSON(t, ts.URL+"/v1/insert", UpdateRequest{OID: nextOID, Rect: w[:]})
			live[nextOID] = r
			nextOID++
			touched++
		case len(live) > 0:
			oid := randLiveOID(rng, live)
			w := RectToWire(live[oid])
			postJSON(t, ts.URL+"/v1/delete", UpdateRequest{OID: oid, Rect: w[:]})
			delete(live, oid)
			touched++
		}
	}

	c := inst.watch.Counters()
	if c.Evaluated == 0 {
		t.Fatalf("the watch table evaluated nothing: %+v", c)
	}
	if c.Pruned == 0 {
		t.Fatalf("subscription R-tree pruned nothing: %+v", c)
	}
	if want := uint64(len(subs) * touched); c.Evaluated+c.Pruned != want {
		t.Fatalf("evaluated + pruned = %d, want subscriptions × records = %d: %+v", c.Evaluated+c.Pruned, want, c)
	}

	finals := make([]map[uint64]bool, len(subs))
	for i := range subs {
		finals[i] = oracleSet(t, inst, subs[i])
	}
	srv.DrainWatchers()

	for i, ws := range streams {
		lines, end := ws.wait(t)
		if end != "drain" {
			t.Errorf("sub %v: end = %q, want drain", subs[i].names, end)
		}
		got := make(map[uint64]bool, len(baselines[i]))
		for oid := range baselines[i] {
			got[oid] = true
		}
		lastGen := uint64(0)
		for _, line := range lines {
			switch line.Event {
			case "enter":
				got[*line.OID] = true
			case "exit":
				delete(got, *line.OID)
			case "":
				continue // terminal line
			default:
				t.Errorf("sub %v: unknown event %q", subs[i].names, line.Event)
			}
			if line.Gen == nil || *line.Gen < lastGen {
				t.Errorf("sub %v: generations not non-decreasing", subs[i].names)
			} else {
				lastGen = *line.Gen
			}
		}
		if !sameOIDSet(got, finals[i]) {
			t.Errorf("sub %v: reconstructed membership %v != oracle %v",
				subs[i].names, sortedOIDs(got), sortedOIDs(finals[i]))
		}
	}
}

func randLiveOID(rng *rand.Rand, live map[uint64]geom.Rect) uint64 {
	n := rng.Intn(len(live))
	for oid := range live {
		if n == 0 {
			return oid
		}
		n--
	}
	panic("unreachable")
}

// translateRect slides a rect by a small random offset (small enough
// that objects parked inside a reference band tend to stay there).
func translateRect(rng *rand.Rand, r geom.Rect) geom.Rect {
	dx := (rng.Float64() - 0.5) * 4
	dy := (rng.Float64() - 0.5) * 30
	return geom.R(r.Min.X+dx, r.Min.Y+dy, r.Max.X+dx, r.Max.Y+dy)
}

func sameOIDSet(a, b map[uint64]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for oid := range a {
		if !b[oid] {
			return false
		}
	}
	return true
}

func sortedOIDs(m map[uint64]bool) []uint64 {
	out := make([]uint64, 0, len(m))
	for oid := range m {
		out = append(out, oid)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// TestWatchSlotPool checks that watch streams are admitted from their
// own bounded pool: with MaxWatch=1 the second subscriber gets a 429
// with a Retry-After header while ordinary queries still pass.
func TestWatchSlotPool(t *testing.T) {
	srv := New(Config{MaxWatch: 1})
	if _, err := srv.AddIndex(IndexSpec{Name: "main", Kind: index.KindRTree}, nil); err != nil {
		t.Fatalf("AddIndex: %v", err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close()

	req := WatchRequest{Relations: []string{"not_disjoint"}, Ref: []float64{0, 0, 10, 10}}
	ws := openWatch(t, ts.URL, req)

	body, _ := json.Marshal(req)
	resp, err := http.Post(ts.URL+"/v1/watch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("second watch: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second watch: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatalf("429 without Retry-After")
	}
	if srv.metrics.watchRejected.Load() == 0 {
		t.Fatalf("watchRejected not incremented")
	}

	// The slot pool must not gate queries.
	qbody, _ := json.Marshal(QueryRequest{Relations: []string{"not_disjoint"}, Ref: []float64{0, 0, 1, 1}})
	qresp, err := http.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader(qbody))
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	io.Copy(io.Discard, qresp.Body)
	qresp.Body.Close()
	if qresp.StatusCode != http.StatusOK {
		t.Fatalf("query while watch slots full: status %d", qresp.StatusCode)
	}

	srv.DrainWatchers()
	if _, end := ws.wait(t); end != "drain" {
		t.Fatalf("end = %q, want drain", end)
	}
}

// TestWatchBufferBound: the event buffer is allocated whole when a
// subscription starts, so a buffer over maxWatchBuffer is a 400 naming
// the bound, answered before a watch slot is taken — the one slot of
// this server is free for the largest buffer allowed right after.
func TestWatchBufferBound(t *testing.T) {
	srv := New(Config{MaxWatch: 1})
	if _, err := srv.AddIndex(IndexSpec{Name: "main", Kind: index.KindRTree}, nil); err != nil {
		t.Fatalf("AddIndex: %v", err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close()

	req := WatchRequest{Relations: []string{"not_disjoint"}, Ref: []float64{0, 0, 10, 10}, Buffer: 1 << 40}
	st, body := postStatus(t, ts.URL+"/v1/watch", req)
	if st != http.StatusBadRequest || !strings.Contains(body.Error, strconv.Itoa(maxWatchBuffer)) {
		t.Fatalf("buffer 1<<40: HTTP %d %q, want 400 naming %d", st, body.Error, maxWatchBuffer)
	}
	if n := srv.metrics.watchStreams.Load(); n != 0 {
		t.Fatalf("topod_watch_streams = %d after the refusal, want 0", n)
	}
	req.Buffer = maxWatchBuffer
	ws := openWatch(t, ts.URL, req)
	srv.DrainWatchers()
	if _, end := ws.wait(t); end != "drain" {
		t.Fatalf("end = %q, want drain", end)
	}
}

// TestWatchChurnRace churns subscribers joining and leaving under
// concurrent writers — run under -race by the CI race job.
func TestWatchChurnRace(t *testing.T) {
	srv := New(Config{})
	inst, err := srv.AddIndex(IndexSpec{Name: "main", Kind: index.KindRTree}, nil)
	if err != nil {
		t.Fatalf("AddIndex: %v", err)
	}
	defer srv.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			base := uint64(w) * 1_000_000
			n := uint64(0)
			for {
				select {
				case <-stop:
					return
				default:
				}
				x := rng.Float64() * 100
				y := rng.Float64() * 100
				r := geom.R(x, y, x+5, y+5)
				oid := base + n
				if err := inst.Insert(r, oid); err != nil {
					t.Errorf("writer %d: insert: %v", w, err)
					return
				}
				if n%2 == 0 {
					if err := inst.Delete(r, oid); err != nil {
						t.Errorf("writer %d: delete: %v", w, err)
						return
					}
				}
				n++
			}
		}(w)
	}
	for sx := 0; sx < 3; sx++ {
		wg.Add(1)
		go func(sx int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				sub, err := inst.watch.Subscribe(geom.R(10, 10, 90, 90), topo.NotDisjoint, 32)
				if err != nil {
					if strings.Contains(err.Error(), "closed") {
						return
					}
					t.Errorf("subscriber %d: %v", sx, err)
					return
				}
				deadline := time.After(5 * time.Millisecond)
			drain:
				for {
					select {
					case _, ok := <-sub.Events():
						if !ok {
							break drain
						}
					case <-deadline:
						break drain
					}
				}
				inst.watch.Unsubscribe(sub)
				for range sub.Events() {
					// drain until closed
				}
			}
		}(sx)
	}
	time.Sleep(500 * time.Millisecond)
	close(stop)
	wg.Wait()
	srv.DrainWatchers()
}

// TestWatchSubscribeBesideWriters: attaching reads nothing of the
// index, so a subscriber does not queue behind the write path's
// mutation lock (held here as a checkpoint or a long commit holds it).
func TestWatchSubscribeBesideWriters(t *testing.T) {
	srv := New(Config{})
	defer srv.Close()
	inst, err := srv.AddIndex(IndexSpec{Name: "main", Kind: index.KindRTree, Dir: t.TempDir()}, nil)
	if err != nil {
		t.Fatalf("AddIndex: %v", err)
	}
	mu := inst.mutLock()
	mu.Lock()
	done := make(chan error, 1)
	go func() {
		sub, err := inst.watch.Subscribe(geom.R(0, 0, 10, 10), topo.NotDisjoint, 0)
		if err == nil {
			inst.watch.Unsubscribe(sub)
		}
		done <- err
	}()
	select {
	case err := <-done:
		mu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Second):
		mu.Unlock()
		t.Fatal("Subscribe waited for the mutation lock")
	}
}
