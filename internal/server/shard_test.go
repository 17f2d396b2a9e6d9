package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"

	"mbrtopo/internal/geom"
	"mbrtopo/internal/index"
	"mbrtopo/internal/query"
	"mbrtopo/internal/wal"
	"mbrtopo/internal/workload"
)

// newShardTestServer serves the same dataset twice: once as a plain
// single index ("single") and once STR-sharded ("tiled", shards
// tiles), so tests can differential-check the wire responses.
func newShardTestServer(t *testing.T, shards, nData int) (*Server, *httptest.Server, *workload.Dataset) {
	t.Helper()
	d := workload.NewDataset(workload.Medium, nData, 20, 1995)
	srv := New(Config{})
	if _, err := srv.AddIndex(IndexSpec{Name: "single", Kind: index.KindRTree, PageSize: 512}, d.Items); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.AddIndex(IndexSpec{Name: "tiled", Kind: index.KindRTree, PageSize: 512, Shards: shards}, d.Items); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts, d
}

func oidSet(matches []query.Match) []uint64 {
	out := make([]uint64, len(matches))
	for i, m := range matches {
		out[i] = m.OID
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// TestShardedServerDifferential drives /v1/query, /v1/knn and /v1/join
// against a sharded index and its single-index twin over the wire: the
// answers must be identical.
func TestShardedServerDifferential(t *testing.T) {
	for _, shards := range []int{2, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			_, ts, d := newShardTestServer(t, shards, 1200)

			for _, relations := range [][]string{{"overlap"}, {"in"}, {"not_disjoint"}, {"meet", "equal"}, {"disjoint"}} {
				for qi, ref := range d.Queries[:4] {
					req := QueryRequest{
						Relations: relations,
						Ref:       []float64{ref.Min.X, ref.Min.Y, ref.Max.X, ref.Max.Y},
					}
					req.Index = "single"
					want, _, errW := postQuery(t, ts.URL, req)
					req.Index = "tiled"
					got, _, errG := postQuery(t, ts.URL, req)
					if errW != "" || errG != "" {
						t.Fatalf("%v query %d: errors %q / %q", relations, qi, errW, errG)
					}
					ws, gs := oidSet(want), oidSet(got)
					if len(ws) != len(gs) {
						t.Fatalf("%v query %d: sharded %d matches, single %d", relations, qi, len(gs), len(ws))
					}
					for i := range ws {
						if ws[i] != gs[i] {
							t.Fatalf("%v query %d: oid[%d] %d vs %d", relations, qi, i, gs[i], ws[i])
						}
					}
				}
			}

			for _, p := range []geom.Point{{X: 100, Y: 100}, {X: 512, Y: 700}, {X: 0, Y: 0}} {
				for _, k := range []int{1, 5, 17} {
					want := getKNN(t, ts.URL, "single", p, k)
					got := getKNN(t, ts.URL, "tiled", p, k)
					if len(want.Neighbours) != len(got.Neighbours) {
						t.Fatalf("knn k=%d at %v: %d vs %d neighbours", k, p, len(got.Neighbours), len(want.Neighbours))
					}
					for i := range want.Neighbours {
						if want.Neighbours[i] != got.Neighbours[i] {
							t.Fatalf("knn k=%d at %v: neighbour %d differs: %+v vs %+v",
								k, p, i, got.Neighbours[i], want.Neighbours[i])
						}
					}
				}
			}

			for _, relations := range [][]string{{"overlap"}, {"meet"}} {
				_, wantPairs, _, errW := postJoin(t, ts.URL, JoinRequest{Left: "single", Relations: relations})
				_, gotPairs, _, errG := postJoin(t, ts.URL, JoinRequest{Left: "tiled", Relations: relations})
				if errW != "" || errG != "" {
					t.Fatalf("join %v: errors %q / %q", relations, errW, errG)
				}
				ws := wireJoinPairSet(t, wantPairs)
				gs := wireJoinPairSet(t, gotPairs)
				if len(ws) != len(gs) {
					t.Fatalf("join %v: sharded %d pairs, single %d", relations, len(gs), len(ws))
				}
				for pair := range ws {
					if !gs[pair] {
						t.Fatalf("join %v: sharded stream missing pair %v", relations, pair)
					}
				}
			}
		})
	}
}

func getKNN(t *testing.T, base, name string, p geom.Point, k int) KNNResponse {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("%s/v1/knn?index=%s&k=%d&x=%g&y=%g", base, name, k, p.X, p.Y))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		t.Fatalf("knn status %d: %s", resp.StatusCode, msg)
	}
	var out KNNResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestShardedIndexInfoAndMetrics checks the observable seams: the tile
// count on /v1/indexes and the router counters on /metrics.
func TestShardedIndexInfoAndMetrics(t *testing.T) {
	_, ts, d := newShardTestServer(t, 4, 600)

	resp, err := http.Get(ts.URL + "/v1/indexes")
	if err != nil {
		t.Fatal(err)
	}
	var infos []IndexInfo
	if err := json.NewDecoder(resp.Body).Decode(&infos); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	byName := map[string]IndexInfo{}
	for _, info := range infos {
		byName[info.Name] = info
	}
	if got := byName["tiled"].Shards; got != 4 {
		t.Fatalf("tiled shards = %d, want 4", got)
	}
	if got := byName["single"].Shards; got != 0 {
		t.Fatalf("single shards = %d, want 0", got)
	}
	if byName["tiled"].Objects != byName["single"].Objects {
		t.Fatalf("object counts differ: %d vs %d", byName["tiled"].Objects, byName["single"].Objects)
	}

	// A narrow window query should prune at least one tile...
	q := d.Queries[0]
	_, _, errLine := postQuery(t, ts.URL, QueryRequest{
		Index:     "tiled",
		Relations: []string{"overlap"},
		Ref:       []float64{q.Min.X, q.Min.Y, q.Min.X + 1, q.Min.Y + 1},
	})
	if errLine != "" {
		t.Fatalf("query: %s", errLine)
	}
	// ...and the counters must show up in the exposition.
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	for _, want := range []string{
		`topod_shard_tiles{index="tiled"} 4`,
		`topod_shard_tile_searches_total{index="tiled"}`,
		`topod_shard_tile_prunes_total{index="tiled"}`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("/metrics missing %q", want)
		}
	}
}

// TestShardedMutationsAndWatch routes wire mutations through the
// sharded parent and checks a watch subscriber sees them.
func TestShardedMutationsAndWatch(t *testing.T) {
	srv, ts, _ := newShardTestServer(t, 3, 400)
	inst, err := srv.instance("tiled")
	if err != nil {
		t.Fatal(err)
	}
	before := inst.ReadIndex().Len()

	postJSON(t, ts.URL+"/v1/insert", UpdateRequest{
		Index: "tiled", OID: 990001, Rect: []float64{50, 50, 60, 60},
	})
	if got := inst.ReadIndex().Len(); got != before+1 {
		t.Fatalf("after insert Len = %d, want %d", got, before+1)
	}
	// Exactly one tile holds the new object.
	holders := 0
	for _, tile := range inst.tiles {
		tile.ReadIndex().Search(
			func(geom.Rect) bool { return true },
			func(r geom.Rect) bool { return r == geom.R(50, 50, 60, 60) },
			func(_ geom.Rect, oid uint64) bool {
				if oid == 990001 {
					holders++
				}
				return true
			})
	}
	if holders != 1 {
		t.Fatalf("inserted object found in %d tiles, want 1", holders)
	}

	postJSON(t, ts.URL+"/v1/delete", UpdateRequest{
		Index: "tiled", OID: 990001, Rect: []float64{50, 50, 60, 60},
	})
	if got := inst.ReadIndex().Len(); got != before {
		t.Fatalf("after delete Len = %d, want %d", got, before)
	}

	// Deleting a missing object reports not-found over the wire.
	resp, err := http.Post(ts.URL+"/v1/delete", "application/json",
		strings.NewReader(`{"index":"tiled","oid":990001,"rect":[50,50,60,60]}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Fatal("second delete succeeded")
	}
}

// TestShardedDurableRecovery crashes a durable sharded index (file
// handles dropped, no clean-shutdown checkpoint) and reboots it: the
// layout on disk must win over the -shards flag and every tile must
// come back with its logged mutations.
func TestShardedDurableRecovery(t *testing.T) {
	dir := t.TempDir()
	d := workload.NewDataset(workload.Medium, 500, 8, 7)
	spec := IndexSpec{
		Name: "main", Kind: index.KindRTree, PageSize: 512,
		Dir: dir, Fsync: wal.SyncAlways, Shards: 3,
	}

	srv := New(Config{})
	inst, err := srv.AddIndex(spec, d.Items)
	if err != nil {
		t.Fatal(err)
	}
	if inst.Sharded() != 3 {
		t.Fatalf("Sharded() = %d, want 3", inst.Sharded())
	}
	if !inst.Durable() {
		t.Fatal("sharded index with a data dir must report durable")
	}
	// Mutations after the initial build land in the tiles' WALs.
	if err := inst.Insert(geom.R(5, 5, 6, 6), 880001); err != nil {
		t.Fatal(err)
	}
	if err := inst.Insert(geom.R(900, 900, 905, 905), 880002); err != nil {
		t.Fatal(err)
	}
	if err := inst.Delete(d.Items[10].Rect, d.Items[10].OID); err != nil {
		t.Fatal(err)
	}
	wantLen := inst.ReadIndex().Len()
	wantOIDs := queryAllOIDs(t, inst)

	// Crash: drop every tile's log handle without checkpointing.
	abandon(inst)

	// Reboot requesting ONE shard: the on-disk tile layout must win.
	spec2 := spec
	spec2.Shards = 1
	srv2 := New(Config{})
	inst2, err := srv2.AddIndex(spec2, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	if inst2.Sharded() != 3 {
		t.Fatalf("rebooted Sharded() = %d, want 3 (disk layout must win over the flag)", inst2.Sharded())
	}
	if !inst2.Healthy() {
		t.Fatalf("rebooted sharded index unhealthy: %s", inst2.FailReason())
	}
	if !inst2.Recovered {
		t.Fatal("reboot after crash must report recovery")
	}
	if got := inst2.ReadIndex().Len(); got != wantLen {
		t.Fatalf("recovered Len = %d, want %d", got, wantLen)
	}
	gotOIDs := queryAllOIDs(t, inst2)
	if len(gotOIDs) != len(wantOIDs) {
		t.Fatalf("recovered %d objects, want %d", len(gotOIDs), len(wantOIDs))
	}
	for i := range wantOIDs {
		if gotOIDs[i] != wantOIDs[i] {
			t.Fatalf("recovered oid[%d] = %d, want %d", i, gotOIDs[i], wantOIDs[i])
		}
	}
}

// queryAllOIDs scans every stored object through the instance's read
// view, sorted by oid.
func queryAllOIDs(t *testing.T, inst *Instance) []uint64 {
	t.Helper()
	var oids []uint64
	inst.ReadIndex().Search(
		func(geom.Rect) bool { return true },
		func(geom.Rect) bool { return true },
		func(_ geom.Rect, oid uint64) bool { oids = append(oids, oid); return true })
	sort.Slice(oids, func(i, j int) bool { return oids[i] < oids[j] })
	return oids
}

// TestShardedSpecRejections covers the spec combinations sharding
// refuses or overrides.
func TestShardedSpecRejections(t *testing.T) {
	srv := New(Config{})
	t.Cleanup(func() { srv.Close() })

	_, err := srv.AddIndex(IndexSpec{
		Name: "f", Kind: index.KindRTree, Dir: t.TempDir(),
		Follower: true, Shards: 2,
	}, nil)
	if err == nil || !strings.Contains(err.Error(), "Follower") {
		t.Fatalf("follower+shards: got %v, want incompatibility error", err)
	}

	// A plain single-index snapshot in the directory keeps the index
	// single even when sharding is requested.
	dir := t.TempDir()
	d := workload.NewDataset(workload.Small, 50, 0, 3)
	srvA := New(Config{})
	instA, err := srvA.AddIndex(IndexSpec{
		Name: "main", Kind: index.KindRTree, Dir: dir, Fsync: wal.SyncAlways,
	}, d.Items)
	if err != nil {
		t.Fatal(err)
	}
	if err := instA.Close(); err != nil {
		t.Fatal(err)
	}
	srvB := New(Config{})
	t.Cleanup(func() { srvB.Close() })
	instB, err := srvB.AddIndex(IndexSpec{
		Name: "main", Kind: index.KindRTree, Dir: dir, Fsync: wal.SyncAlways, Shards: 4,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if instB.Sharded() != 0 {
		t.Fatalf("existing single snapshot must boot single, got %d shards", instB.Sharded())
	}
	if instB.ReadIndex().Len() != 50 {
		t.Fatalf("recovered %d objects, want 50", instB.ReadIndex().Len())
	}
}
