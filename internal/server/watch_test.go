package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"math"
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

// TestWatchHugeTimeout opens a stream whose timeout_ms overflows a
// Duration's nanoseconds: it stays open and delivers an insert's event.
func TestWatchHugeTimeout(t *testing.T) {
	srv := New(Config{})
	if _, err := srv.AddIndex(IndexSpec{Name: "main", Kind: index.KindRTree}, nil); err != nil {
		t.Fatalf("AddIndex: %v", err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close()

	ws := openWatch(t, ts.URL, WatchRequest{Relations: []string{"not_disjoint"}, Ref: []float64{0, 0, 10, 10}, TimeoutMS: math.MaxInt64})
	if st, er := postStatus(t, ts.URL+"/v1/insert", UpdateRequest{OID: 7, Rect: []float64{1, 1, 2, 2}}); st != http.StatusOK {
		t.Fatalf("insert: HTTP %d (%s)", st, er.Error)
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		lines, done := ws.from(0)
		if len(lines) > 0 && lines[0].Event == "enter" && lines[0].OID != nil && *lines[0].OID == 7 {
			break
		}
		if done || time.Now().After(deadline) {
			t.Fatalf("timeout_ms %d: lines %+v, stream ended %v; want oid 7's enter event", int64(math.MaxInt64), lines, done)
		}
	}
	srv.DrainWatchers()
	if _, end := ws.wait(t); end != "drain" {
		t.Fatalf("end = %q, want drain", end)
	}
}
