package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"slices"
	"testing"

	"mbrtopo/internal/geom"
	"mbrtopo/internal/index"
	"mbrtopo/internal/wal"
	"mbrtopo/internal/workload"
)

// ndjsonBody renders items as a /v1/bulk NDJSON request body.
func ndjsonBody(t *testing.T, items []index.Item) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, it := range items {
		line := BulkLine{OID: it.OID, Rect: []float64{it.Rect.Min.X, it.Rect.Min.Y, it.Rect.Max.X, it.Rect.Max.Y}}
		if err := enc.Encode(line); err != nil {
			t.Fatal(err)
		}
	}
	return &buf
}

func postBulk(t *testing.T, base, indexName string, body *bytes.Buffer) (BulkResponse, int) {
	t.Helper()
	resp, err := http.Post(base+"/v1/bulk?index="+indexName, "application/x-ndjson", body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var br BulkResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
			t.Fatal(err)
		}
	}
	return br, resp.StatusCode
}

// TestBulkEndpointBadLine checks a malformed or degenerate line
// rejects the whole request with 400 before anything is applied.
func TestBulkEndpointBadLine(t *testing.T) {
	srv := New(Config{})
	if _, err := srv.AddIndex(IndexSpec{Name: "main", Kind: index.KindRTree, PageSize: 512}, nil); err != nil {
		t.Fatal(err)
	}
	ts := startServer(srv, srv.Handler())
	defer ts.Close()

	for _, body := range []string{
		`{"oid":1,"rect":[0,0,1,1]}` + "\n" + `{"oid":2,"rect":[5,5,1,1]}` + "\n", // degenerate rect
		`{"oid":1,"rect":[0,0,1,1]}` + "\n" + `not json` + "\n",                   // malformed line
		`{"oid":1,"rect":[0,0,1]}` + "\n",                                         // wrong arity
	} {
		_, code := postBulk(t, ts.URL, "main", bytes.NewBufferString(body))
		if code != http.StatusBadRequest {
			t.Fatalf("body %q: code %d, want 400", body, code)
		}
	}
	inst, err := srv.instance("main")
	if err != nil {
		t.Fatal(err)
	}
	if n := inst.ReadIndex().Len(); n != 0 {
		t.Fatalf("rejected bulk loads left %d objects behind", n)
	}
}

// TestBulkEndpointDurableRestart checks a bulk load on a durable index
// is WAL-logged as one batch: kill the server without a checkpoint and
// the whole batch replays on the next boot.
func TestBulkEndpointDurableRestart(t *testing.T) {
	dir := t.TempDir()
	d := workload.NewDataset(workload.Medium, 300, 0, 7)
	spec := IndexSpec{
		Name: "main", Kind: index.KindRTree, PageSize: 512,
		Dir: dir, Fsync: wal.SyncAlways, CheckpointEvery: -1, // manual only
	}

	srv := New(Config{})
	if _, err := srv.AddIndex(spec, nil); err != nil {
		t.Fatal(err)
	}
	ts := startServer(srv, srv.Handler())
	br, code := postBulk(t, ts.URL, "main", ndjsonBody(t, d.Items))
	if code != http.StatusOK || br.Inserted != len(d.Items) {
		t.Fatalf("bulk: code %d, resp %+v", code, br)
	}
	inst, err := srv.instance("main")
	if err != nil {
		t.Fatal(err)
	}
	if got := inst.dur.log.Records(); got != uint64(len(d.Items)) {
		t.Fatalf("WAL holds %d records, want %d", got, len(d.Items))
	}
	gs := inst.dur.groupStats()
	if gs.Records != uint64(len(d.Items)) || gs.MaxBatch != uint64(len(d.Items)) {
		t.Fatalf("group stats %+v, want one %d-record batch", gs, len(d.Items))
	}
	ts.Close()
	abandon(inst)

	srv2 := New(Config{})
	inst2, err := srv2.AddIndex(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	if !inst2.Recovered || inst2.Replayed != len(d.Items) {
		t.Fatalf("recovered=%v replayed=%d, want %d WAL records replayed", inst2.Recovered, inst2.Replayed, len(d.Items))
	}
	assertSameAnswers(t, "after restart", inst2.ReadIndex(), groundTruth(t, d.Items, nil))
}

// TestDuplicateOIDSurvivesCrash: one oid stored under two rectangles
// is two registrations, and a query lists both — on the primary, whose
// /v1/bulk into an empty R*-tree was STR-packed, and after a kill -9,
// whose WAL replay inserted the same records one by one into a tree of
// another shape: the same multiset of match lines.
func TestDuplicateOIDSurvivesCrash(t *testing.T) {
	items := append(workload.NewDataset(workload.Medium, 400, 0, 1995).Items, index.Item{Rect: geom.R(500, 500, 510, 510), OID: 2})
	spec := IndexSpec{Name: "main", Kind: index.KindRStar, PageSize: 512, Dir: t.TempDir(), Fsync: wal.SyncAlways, CheckpointEvery: -1}
	req := QueryRequest{Index: "main", Relations: []string{"inside"}, Ref: []float64{-1, -1, 1001, 1001}}
	var lines [2][]string
	for i := range lines {
		srv := New(Config{})
		inst, err := srv.AddIndex(spec, nil)
		if err != nil {
			t.Fatal(err)
		}
		ts := startServer(srv, srv.Handler())
		if i == 0 {
			if br, code := postBulk(t, ts.URL, "main", ndjsonBody(t, items)); code != http.StatusOK || br.Objects != len(items) {
				t.Fatalf("bulk: HTTP %d, %+v", code, br)
			}
		} else if !inst.Recovered || inst.Replayed != len(items) {
			t.Fatalf("reboot: recovered %v, %d records replayed", inst.Recovered, inst.Replayed)
		}
		lines[i], _ = answer(rawQuery(t, ts.URL, req))
		ts.Close()
		if i == 0 {
			abandon(inst)
		} else {
			srv.Close()
		}
	}
	if len(lines[0]) != len(items) || !slices.Equal(lines[0], lines[1]) {
		t.Fatalf("%d lines before the crash, %d after, want %d and equal", len(lines[0]), len(lines[1]), len(items))
	}
}
