package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"testing"

	"mbrtopo/internal/geom"
	"mbrtopo/internal/index"
	"mbrtopo/internal/rtree"
	"mbrtopo/internal/topo"
	"mbrtopo/internal/wal"
	"mbrtopo/internal/workload"
)

// sameBodyEveryTime posts req to url five times and fails unless every
// body equals the first byte for byte, stats trailer included. On a
// cache-free server the first answer is rendered rectangle by rectangle
// and later ones are copied, leaf by leaf as each earns it, from the
// text kept beside the node arena (rtree/text.go): no answer byte may
// tell the two apart. A join's pair order is unspecified, so its lines
// are sorted first. It returns the body.
func sameBodyEveryTime(t *testing.T, url string, req any, sorted bool) []byte {
	t.Helper()
	payload, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	var first []byte
	for i := 0; i < 5; i++ {
		resp, err := http.Post(url, "application/json", bytes.NewReader(payload))
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: HTTP %d, %v", payload, resp.StatusCode, err)
		}
		if sorted {
			lines := bytes.SplitAfter(body, []byte("\n"))
			sort.Slice(lines, func(a, b int) bool { return bytes.Compare(lines[a], lines[b]) < 0 })
			body = bytes.Join(lines, nil)
		}
		if i == 0 {
			first = body
		} else if !bytes.Equal(body, first) {
			t.Fatalf("%s: answer %d differs from the first\n got %s\nwant %s", payload, i+1, body, first)
		}
	}
	return first
}

// textServed counts the matches of a whole-world scan that come with
// their leaf's text, out of all — how far an instance's leaves have
// earned theirs. The scan itself is a consumer: it earns too.
func textServed(t *testing.T, inst *Instance) (with, all int) {
	t.Helper()
	_, err := inst.ReadProc().StreamLeaves(context.Background(), topo.NewSet(topo.All()...), geom.R(-1, -1, 1001, 1001), 0,
		func(l rtree.Leaf) bool {
			all += l.Len()
			lines, ok := l.Lines()
			if !ok {
				return true
			}
			with += l.Len()
			for i := range l.Len() {
				h := l.Hit(i)
				if want := fmt.Sprintf(`%d,"rect":%s`, h.OID, h.Rect.AppendWire(nil)); lines.Line(i) != want {
					t.Fatalf("oid %d: text %s beside %s", h.OID, lines.Line(i), want)
				}
			}
			return true
		})
	if err != nil {
		t.Fatal(err)
	}
	return with, all
}

// TestAnswersUnchangedAsLeavesEarnText drives every way a served tree
// comes by its nodes — built in memory, booted from a checkpoint
// image, and that image adopted by the first write — through the same
// requests, each repeated until the leaves under it have earned their
// text, and then through writes: an object inserted into an earned leaf
// appears under its own coordinates, a moved one never under the old
// ones, a deleted one not at all.
func TestAnswersUnchangedAsLeavesEarnText(t *testing.T) {
	d := workload.NewDataset(workload.Medium, 3000, 6, 1995)
	dir := t.TempDir()
	seed := New(Config{})
	if _, err := seed.AddIndex(IndexSpec{Name: "booted", Kind: index.KindRStar, PageSize: 512,
		Dir: dir, Fsync: wal.SyncNever, CheckpointEvery: -1}, d.Items); err != nil {
		t.Fatal(err)
	}
	if err := seed.Close(); err != nil {
		t.Fatal(err)
	}

	srv := New(Config{})
	t.Cleanup(func() { srv.Close() })
	for _, spec := range []IndexSpec{
		{Name: "rtree", Kind: index.KindRTree, PageSize: 512},
		{Name: "rplus", Kind: index.KindRPlus, PageSize: 512},
		{Name: "booted", Kind: index.KindRStar, PageSize: 512, Dir: dir, Fsync: wal.SyncNever, CheckpointEvery: -1},
	} {
		if _, err := srv.AddIndex(spec, d.Items); err != nil {
			t.Fatal(err)
		}
	}
	ts := startServer(srv, srv.Handler())
	t.Cleanup(ts.Close)

	for _, name := range []string{"rtree", "rplus", "booted"} {
		t.Run(name, func(t *testing.T) {
			inst, err := srv.instance(name)
			if err != nil {
				t.Fatal(err)
			}
			if name == "booted" && inst.Backend() != "flat" {
				t.Fatalf("the checkpointed index came up %q, want flat", inst.Backend())
			}
			same := func(req QueryRequest) []byte {
				req.Index = name
				return sameBodyEveryTime(t, ts.URL+"/v1/query", req, false)
			}
			requests := func() (bodies [][]byte) {
				for _, ref := range d.Queries {
					for _, rels := range [][]string{{"not_disjoint"}, {"overlap", "meet"}, {"inside"}, {"contains", "covers", "equal"}} {
						bodies = append(bodies, same(QueryRequest{Relations: rels, Ref: wireOf(ref)}))
					}
					grown := geom.R(ref.Min.X-40, ref.Min.Y-40, ref.Max.X+40, ref.Max.Y+40)
					bodies = append(bodies, same(QueryRequest{Relations: []string{"not_disjoint"}, Ref: wireOf(grown),
						Relations2: []string{"overlap", "inside"}, Ref2: wireOf(ref)}))
					bodies = append(bodies, same(QueryRequest{Relations: []string{"not_disjoint"}, Ref: wireOf(grown), Limit: 7}))
				}
				return bodies
			}
			cold := requests()
			// One whole-world scan earns a leaf of a covering tree its text.
			// An R+ leaf takes as many as its size over the entries it is
			// the first to deliver: the rest are registered in leaves the
			// scan reaches earlier, and a duplicate is dropped unrendered.
			with, all := textServed(t, inst)
			for scans := 1; with != all && scans < 64; scans++ {
				with, all = textServed(t, inst)
			}
			if with != all || all != len(d.Items) {
				t.Fatalf("after 64 whole-world scans %d of %d matches come with text, want all %d", with, all, len(d.Items))
			}
			for i, body := range requests() {
				if !bytes.Equal(body, cold[i]) {
					t.Fatalf("request %d answers differently once every leaf has its text\n got %s\nwant %s", i, body, cold[i])
				}
			}

			// Writes into earned leaves. The probe window sits inside the
			// first reference, which the requests above have been over.
			ref := d.Queries[0]
			cx, cy := (ref.Min.X+ref.Max.X)/2, (ref.Min.Y+ref.Max.Y)/2
			probe := QueryRequest{Relations: []string{"not_disjoint"}, Ref: wireOf(geom.R(cx-30, cy-30, cx+30, cy+30))}
			before := same(probe)
			const oid = 900001
			at := geom.R(cx-0.125, cy-0.125, cx+0.375, cy+0.25)
			moved := geom.R(cx-1.5, cy-2.25, cx+0.0625, cy+0.03125)
			line := func(r geom.Rect) []byte {
				return appendMatchLine(nil, oid, r)
			}
			post := func(path string, req UpdateRequest) {
				t.Helper()
				req.Index = name
				if code, er := postStatus(t, ts.URL+path, req); code != http.StatusOK {
					t.Fatalf("%s: HTTP %d %s", path, code, er.Error)
				}
			}
			post("/v1/insert", UpdateRequest{OID: oid, Rect: wireOf(at)})
			inserted := same(probe)
			if !bytes.Contains(inserted, line(at)) || bytes.Count(inserted, []byte("\n")) != bytes.Count(before, []byte("\n"))+1 {
				t.Fatalf("after the insert the answer lacks %s or has other new lines:\n%s", line(at), inserted)
			}
			post("/v1/delete", UpdateRequest{OID: oid, Rect: wireOf(at)})
			post("/v1/insert", UpdateRequest{OID: oid, Rect: wireOf(moved)})
			after := same(probe)
			if !bytes.Contains(after, line(moved)) || bytes.Contains(after, line(at)) {
				t.Fatalf("after the move the answer must list %s and not %s:\n%s", line(moved), line(at), after)
			}
			post("/v1/delete", UpdateRequest{OID: oid, Rect: wireOf(moved)})
			if gone := same(probe); !bytes.Equal(gone, before) {
				t.Fatalf("after the delete the answer is not what it was before the insert\n got %s\nwant %s", gone, before)
			}
		})
	}

	// Pair lines take both rectangles' text the same way.
	t.Run("join", func(t *testing.T) {
		for _, rels := range [][]string{{"overlap"}, {"inside", "covered_by"}, {"not_disjoint"}} {
			for _, right := range []string{"booted", ""} {
				req := JoinRequest{Left: "rtree", Right: right, Relations: rels}
				if body := sameBodyEveryTime(t, ts.URL+"/v1/join", req, true); bytes.Count(body, []byte("\n")) < 2 {
					t.Fatalf("%s: join of rtree and %q answered no pair: %s", fmt.Sprint(rels), right, body)
				}
			}
		}
	})
}
