package server

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"mbrtopo/internal/geom"
	"mbrtopo/internal/index"
	"mbrtopo/internal/query"
	"mbrtopo/internal/rtree"
	"mbrtopo/internal/topo"
	"mbrtopo/internal/wal"
	"mbrtopo/internal/workload"
)

// durabilityWindows are the query rectangles every equivalence check
// runs (the whole world plus assorted sub-windows).
var durabilityWindows = []geom.Rect{
	geom.R(-1, -1, 1001, 1001),
	geom.R(100, 100, 400, 400),
	geom.R(300, 500, 700, 900),
	geom.R(0, 0, 50, 50),
	geom.R(950, 950, 1000, 1000),
}

// queryOIDs runs a not-disjoint window query and returns the sorted
// distinct OIDs.
func queryOIDs(t *testing.T, idx index.Index, win geom.Rect) []uint64 {
	t.Helper()
	p := &query.Processor{Idx: idx}
	res, err := p.QuerySetMBR(topo.NotDisjoint, win)
	if err != nil {
		t.Fatalf("query %v: %v", win, err)
	}
	seen := make(map[uint64]bool, len(res.Matches))
	oids := make([]uint64, 0, len(res.Matches))
	for _, m := range res.Matches {
		if !seen[m.OID] {
			seen[m.OID] = true
			oids = append(oids, m.OID)
		}
	}
	slices.Sort(oids)
	return oids
}

// diffAnswers compares got against a ground-truth index over every
// durability window and describes the first difference ("" when none).
func diffAnswers(t *testing.T, got, want index.Index) string {
	t.Helper()
	if got.Len() != want.Len() {
		return fmt.Sprintf("Len = %d, want %d", got.Len(), want.Len())
	}
	for _, win := range durabilityWindows {
		if g, w := queryOIDs(t, got, win), queryOIDs(t, want, win); !slices.Equal(g, w) {
			return fmt.Sprintf("window %v: %d matches %v, want %d %v", win, len(g), g, len(w), w)
		}
	}
	return ""
}

func assertSameAnswers(t *testing.T, label string, got, want index.Index) {
	t.Helper()
	if diff := diffAnswers(t, got, want); diff != "" {
		t.Fatalf("%s: %s", label, diff)
	}
}

// groundTruth builds an in-memory index holding items plus the acked
// mutation suffix.
func groundTruth(t *testing.T, items []index.Item, acked []wal.Record) index.Index {
	t.Helper()
	idx, err := index.New(index.KindRTree)
	if err != nil {
		t.Fatal(err)
	}
	if err := index.Load(idx, items); err != nil {
		t.Fatal(err)
	}
	for _, rec := range acked {
		if err := applyRecord(idx, rec); err != nil {
			t.Fatalf("ground truth %s oid %d: %v", rec.Op, rec.OID, err)
		}
	}
	return idx
}

// mutate applies one record through the instance's public write path.
func mutate(inst *Instance, m wal.Record) error {
	if m.Op == wal.OpInsert {
		return inst.Insert(m.Rect, m.OID)
	}
	return inst.Delete(m.Rect, m.OID)
}

// abandon drops an instance as a dead process would — no checkpoint —
// releasing only the log handle, so the reopen that follows works from
// the directory alone.
func abandon(inst *Instance) {
	for _, tile := range inst.tiles {
		abandon(tile)
	}
	if inst.dur != nil && inst.dur.log != nil {
		inst.dur.log.Close()
	}
	inst.dur = nil
}

// imageOnDisk reads and decodes name.flat the way a boot does.
func imageOnDisk(t *testing.T, dir, name string) ([]byte, *rtree.FlatTree) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, name+".flat"))
	if err != nil {
		t.Fatal(err)
	}
	image, err := rtree.OpenFlatBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	return data, image
}

// assertTwoFiles pins the on-disk layout: once boot (or a checkpoint)
// has finished, the directory holds name.flat, exactly one
// name.wal.<gen>, and nothing else.
func assertTwoFiles(t *testing.T, label, dir, name string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if len(names) != 2 || names[0] != name+".flat" || !strings.HasPrefix(names[1], name+".wal.") {
		t.Fatalf("%s: data directory holds %v, want exactly %s.flat and one %s.wal.<gen>", label, names, name, name)
	}
}

func TestDurableBuildRestartCleanClose(t *testing.T) {
	dir := t.TempDir()
	d := workload.NewDataset(workload.Medium, 200, 0, 7)
	spec := IndexSpec{Name: "main", Kind: index.KindRTree, PageSize: 512, Dir: dir, Fsync: wal.SyncNever}

	srv := New(Config{})
	inst, err := srv.AddIndex(spec, d.Items)
	if err != nil {
		t.Fatal(err)
	}
	if !inst.Durable() || inst.Recovered || inst.Backend() != "paged" {
		t.Fatalf("fresh build: Durable=%v Recovered=%v backend=%q, want true/false/paged", inst.Durable(), inst.Recovered, inst.Backend())
	}
	assertTwoFiles(t, "fresh build", dir, "main")
	muts := []wal.Record{
		{Op: wal.OpInsert, OID: 9001, Rect: geom.R(10, 10, 12, 12)},
		{Op: wal.OpInsert, OID: 9002, Rect: geom.R(500, 500, 502, 502)},
		{Op: wal.OpDelete, OID: d.Items[0].OID, Rect: d.Items[0].Rect},
	}
	for _, m := range muts {
		if err := mutate(inst, m); err != nil {
			t.Fatalf("%s oid %d: %v", m.Op, m.OID, err)
		}
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	assertTwoFiles(t, "clean close", dir, "main")

	srv2 := New(Config{})
	inst2, err := srv2.AddIndex(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	if !inst2.Recovered || !inst2.Healthy() {
		t.Fatalf("reopen: Recovered=%v Healthy=%v (%s)", inst2.Recovered, inst2.Healthy(), inst2.FailReason())
	}
	if inst2.Replayed != 0 {
		t.Errorf("clean close should checkpoint: replayed %d records, want 0", inst2.Replayed)
	}
	assertSameAnswers(t, "clean restart", inst2.ReadIndex(), groundTruth(t, d.Items, muts))
}

func TestDurableRecoveryReplaysWAL(t *testing.T) {
	dir := t.TempDir()
	d := workload.NewDataset(workload.Medium, 150, 0, 11)
	spec := IndexSpec{Name: "main", Kind: index.KindRTree, PageSize: 512, Dir: dir, Fsync: wal.SyncAlways}

	srv := New(Config{})
	inst, err := srv.AddIndex(spec, d.Items)
	if err != nil {
		t.Fatal(err)
	}
	muts := []wal.Record{
		{Op: wal.OpInsert, OID: 7001, Rect: geom.R(20, 20, 21, 21)},
		{Op: wal.OpDelete, OID: d.Items[3].OID, Rect: d.Items[3].Rect},
		{Op: wal.OpInsert, OID: 7002, Rect: geom.R(800, 100, 803, 104)},
	}
	for _, m := range muts {
		if err := mutate(inst, m); err != nil {
			t.Fatalf("%s oid %d: %v", m.Op, m.OID, err)
		}
	}
	abandon(inst)

	srv2 := New(Config{})
	inst2, err := srv2.AddIndex(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	if !inst2.Recovered || !inst2.Healthy() {
		t.Fatalf("reopen: Recovered=%v Healthy=%v (%s)", inst2.Recovered, inst2.Healthy(), inst2.FailReason())
	}
	if inst2.Replayed != len(muts) {
		t.Errorf("replayed %d records, want %d", inst2.Replayed, len(muts))
	}
	if got := srv2.Metrics().WALReplaysTotal(); got != uint64(len(muts)) {
		t.Errorf("wal_replays_total = %d, want %d", got, len(muts))
	}
	// Replay triggers a post-recovery checkpoint, so a third boot
	// replays nothing.
	if got := srv2.Metrics().CheckpointsTotal(); got == 0 {
		t.Error("post-recovery checkpoint not taken")
	}
	assertTwoFiles(t, "after recovery", dir, "main")
	assertSameAnswers(t, "crash restart", inst2.ReadIndex(), groundTruth(t, d.Items, muts))
}

// crashScript is the deterministic mutation sequence the crash-point
// property test replays against every crash point.
func crashScript(items []index.Item) []wal.Record {
	muts := make([]wal.Record, 0, 18)
	for i := 0; i < 10; i++ {
		muts = append(muts, wal.Record{
			Op:   wal.OpInsert,
			OID:  uint64(5000 + i),
			Rect: geom.R(float64(40*i), float64(30*i), float64(40*i+7), float64(30*i+5)),
		})
	}
	for i := 0; i < 8; i++ {
		it := items[i*3]
		muts = append(muts, wal.Record{Op: wal.OpDelete, OID: it.OID, Rect: it.Rect})
	}
	return muts
}

// crashPoint names one place in the durable write sequence where the
// process dies. The sequence is WAL append writes and, every
// CheckpointEvery mutations, the four steps of durable.publish.
type crashPoint struct {
	// walWrite fails the n-th (0-based) WAL append write; -1 never.
	// tear then leaves 0, half, or all of that frame's bytes behind as
	// garbage, the way a write cut short by the crash would.
	walWrite int
	tear     float64
	// checkpoint/step die after that step of the n-th (1-based)
	// automatic checkpoint; tornTmp first cuts N.flat.tmp in half.
	checkpoint, step int
	tornTmp          bool
}

func (cp crashPoint) String() string {
	if cp.walWrite >= 0 {
		return fmt.Sprintf("WAL write %d (%.0f%% of the frame written)", cp.walWrite, cp.tear*100)
	}
	return fmt.Sprintf("checkpoint %d after step %d (torn tmp: %v)", cp.checkpoint, cp.step, cp.tornTmp)
}

var errCrash = errors.New("injected crash")

// runCrashScenario builds a durable index, runs the script until cp
// kills it, and abandons the process state. It returns the acked prefix
// and the mutation in flight at the crash, whose fate is open: it was
// never acknowledged, but a checkpoint image or a flushed log frame may
// already hold it.
func runCrashScenario(t *testing.T, dir string, items []index.Item, cp crashPoint) (acked []wal.Record, inflight []wal.Record) {
	t.Helper()
	writes, tornOff, tornLen := 0, int64(0), 0
	spec := IndexSpec{
		Name: "crash", Kind: index.KindRTree, PageSize: 512, Dir: dir,
		Fsync: wal.SyncNever, CheckpointEvery: 5,
		WALWriteHook: func(off int64, n int) error {
			if writes == cp.walWrite {
				tornOff, tornLen = off, int(float64(n)*cp.tear)
				return errCrash
			}
			writes++
			return nil
		},
	}
	inst, err := New(Config{}).AddIndex(spec, items)
	if err != nil {
		t.Fatal(err)
	}
	d, checkpoints := inst.dur, 0
	d.failAfter = func(step int) error {
		if step == 1 {
			checkpoints++
		}
		if checkpoints != cp.checkpoint || step != cp.step {
			return nil
		}
		if cp.tornTmp {
			tmp := d.flatPath() + ".tmp"
			st, err := os.Stat(tmp)
			if err == nil {
				err = os.Truncate(tmp, st.Size()/2)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		return errCrash
	}
	for _, m := range crashScript(items) {
		if err := mutate(inst, m); err != nil {
			if !errors.Is(err, errCrash) {
				t.Fatalf("%v: unexpected mutation failure before the crash: %v", cp, err)
			}
			inflight = []wal.Record{m}
			break
		}
		acked = append(acked, m)
	}
	walPath := d.walPath(d.gen)
	abandon(inst)
	// The torn frame only exists if the log the write aimed at is still
	// the current one (a checkpoint may have rotated it away since).
	if st, err := os.Stat(walPath); tornLen > 0 && err == nil && st.Size() == tornOff {
		f, err := os.OpenFile(walPath, os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt(bytes.Repeat([]byte{0xA5}, tornLen), tornOff); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	return acked, inflight
}

// TestCrashAtEveryWritePoint is the recovery property test: the
// mutation workload is killed at every point of the durable write
// sequence — each WAL append (nothing, half, or all of the frame left
// as garbage) and each step of each checkpoint (tmp written, also
// torn; renamed; new WAL opened; old WAL removed) — the index is
// reopened from the directory alone, and its answers must match a
// ground-truth index holding exactly the acked mutations. Never a
// wrong answer, never a crash.
func TestCrashAtEveryWritePoint(t *testing.T) {
	items := workload.NewDataset(workload.Medium, 60, 0, 23).Items
	script := crashScript(items)

	var points []crashPoint
	for k := range script {
		points = append(points, crashPoint{walWrite: k, tear: float64(k%3) / 2})
	}
	for c := 1; c <= len(script)/5; c++ {
		for step := 1; step <= 4; step++ {
			points = append(points, crashPoint{walWrite: -1, checkpoint: c, step: step})
		}
		points = append(points, crashPoint{walWrite: -1, checkpoint: c, step: 1, tornTmp: true})
	}
	// The dry run proves the enumeration covers the whole script.
	if acked, _ := runCrashScenario(t, t.TempDir(), items, crashPoint{walWrite: -1}); len(acked) != len(script) {
		t.Fatalf("dry run acked %d of %d mutations", len(acked), len(script))
	}

	for _, cp := range points {
		dir := t.TempDir()
		acked, inflight := runCrashScenario(t, dir, items, cp)
		if len(inflight) == 0 {
			t.Fatalf("%v: the crash never fired", cp)
		}

		srv := New(Config{})
		inst, err := srv.AddIndex(IndexSpec{Name: "crash", Kind: index.KindRTree, PageSize: 512, Dir: dir, Fsync: wal.SyncNever}, nil)
		if err != nil {
			t.Fatalf("%v: reopen: %v", cp, err)
		}
		if !inst.Recovered || !inst.Healthy() {
			t.Fatalf("%v: Recovered=%v Healthy=%v (%s)", cp, inst.Recovered, inst.Healthy(), inst.FailReason())
		}
		if inst.Replayed > len(acked)+len(inflight) {
			t.Fatalf("%v: replayed %d > acked %d + in flight %d", cp, inst.Replayed, len(acked), len(inflight))
		}
		assertTwoFiles(t, cp.String(), dir, "crash")
		if diff := diffAnswers(t, inst.ReadIndex(), groundTruth(t, items, acked)); diff != "" {
			withInflight := groundTruth(t, items, append(acked, inflight...))
			if diff2 := diffAnswers(t, inst.ReadIndex(), withInflight); diff2 != "" {
				t.Fatalf("%v: after %d acked mutations: %s (counting the one in flight: %s)", cp, len(acked), diff, diff2)
			}
		}
		srv.Close()
	}
}

// TestBootTable walks the boot decision of openDurable: one row per
// state a data directory can be found in.
func TestBootTable(t *testing.T) {
	added := wal.Record{Op: wal.OpInsert, OID: 9001, Rect: geom.R(10, 10, 12, 12)}
	reopenAndInsert := func(t *testing.T, spec IndexSpec) (*Server, *Instance) {
		srv := New(Config{})
		inst, err := srv.AddIndex(spec, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := inst.Insert(added.Rect, added.OID); err != nil {
			t.Fatal(err)
		}
		return srv, inst
	}
	flatFile := func(spec IndexSpec) string { return filepath.Join(spec.Dir, "main.flat") }

	rows := []struct {
		name string
		// damage edits the cleanly closed directory (or the spec) and
		// returns the mutations a correct boot must still serve.
		damage  func(t *testing.T, spec *IndexSpec) []wal.Record
		backend string // of a healthy boot
		reason  string // substring of the 503 reason; "" boots healthy
		corrupt bool   // topod_checksum_failures_total must move
	}{
		{
			name:    "valid image, quiet WAL: serve the image",
			damage:  func(*testing.T, *IndexSpec) []wal.Record { return nil },
			backend: "flat",
		},
		{
			name: "valid image, WAL with records: materialise, replay, checkpoint",
			damage: func(t *testing.T, spec *IndexSpec) []wal.Record {
				_, inst := reopenAndInsert(t, *spec)
				abandon(inst)
				return []wal.Record{added}
			},
			backend: "recovered",
		},
		{
			name: "image fails its checksum",
			damage: func(t *testing.T, spec *IndexSpec) []wal.Record {
				blob, err := os.ReadFile(flatFile(*spec))
				if err != nil {
					t.Fatal(err)
				}
				blob[len(blob)/2] ^= 0x40
				if err := os.WriteFile(flatFile(*spec), blob, 0o644); err != nil {
					t.Fatal(err)
				}
				return nil
			},
			reason:  "checksum mismatch",
			corrupt: true,
		},
		{
			// The operator error of pointing another -tree at the
			// directory: node semantics and statistics would be wrong.
			name: "image of another tree kind",
			damage: func(t *testing.T, spec *IndexSpec) []wal.Record {
				spec.Kind = index.KindRTree
				return nil
			},
			reason: "holds a R*-tree",
		},
		{
			// An older image restored over a directory whose log already
			// continues a newer checkpoint.
			name: "image older than the WAL beside it",
			damage: func(t *testing.T, spec *IndexSpec) []wal.Record {
				old, err := os.ReadFile(flatFile(*spec))
				if err != nil {
					t.Fatal(err)
				}
				srv, _ := reopenAndInsert(t, *spec)
				if err := srv.Close(); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(flatFile(*spec), old, 0o644); err != nil {
					t.Fatal(err)
				}
				return nil
			},
			reason: "the image is stale",
		},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			d := workload.NewDataset(workload.Medium, 200, 0, 17)
			spec := IndexSpec{Name: "main", Kind: index.KindRStar, PageSize: 512, Dir: t.TempDir(), Fsync: wal.SyncAlways}
			srv := New(Config{})
			if _, err := srv.AddIndex(spec, d.Items); err != nil {
				t.Fatal(err)
			}
			if err := srv.Close(); err != nil {
				t.Fatal(err)
			}
			acked := row.damage(t, &spec)

			srv2 := New(Config{})
			inst, err := srv2.AddIndex(spec, nil)
			if err != nil {
				t.Fatalf("a bad image must register unhealthy, not error: %v", err)
			}
			defer srv2.Close()
			if got := srv2.Metrics().ChecksumFailuresTotal(); (got > 0) != row.corrupt {
				t.Errorf("checksum_failures_total = %d, corruption expected: %v", got, row.corrupt)
			}
			ts := httptest.NewServer(srv2.Handler())
			defer ts.Close()
			get := func(path string) (int, string) {
				resp, err := http.Get(ts.URL + path)
				if err != nil {
					t.Fatal(err)
				}
				defer resp.Body.Close()
				body, _ := io.ReadAll(resp.Body)
				return resp.StatusCode, string(body)
			}

			if row.reason == "" {
				if !inst.Healthy() || !inst.Recovered || inst.Backend() != row.backend {
					t.Fatalf("Healthy=%v (%s) Recovered=%v backend=%q, want healthy, recovered, %q",
						inst.Healthy(), inst.FailReason(), inst.Recovered, inst.Backend(), row.backend)
				}
				if inst.Replayed != len(acked) {
					t.Errorf("replayed %d WAL records, want %d", inst.Replayed, len(acked))
				}
				if _, mutable := inst.ReadIndex().(*rtree.Tree); !mutable {
					t.Errorf("backend %q serves a %T, want the mutable tree", row.backend, inst.ReadIndex())
				}
				assertSameAnswers(t, "booted state", inst.ReadIndex(), groundTruth(t, d.Items, acked))
				assertTwoFiles(t, "after boot", spec.Dir, "main")
				if code, body := get("/readyz"); code != http.StatusOK {
					t.Errorf("/readyz = %d (%s), want 200", code, body)
				}
				if row.backend == "flat" {
					// Nothing was replayed: the tree is the image's, node for
					// node, and a Close with nothing logged writes no image.
					data, image := imageOnDisk(t, spec.Dir, "main")
					if shared, total := image.NodesSharedWith(inst.ReadIndex()); shared != total || total < 20 {
						t.Errorf("the booted tree holds %d of the image's %d nodes, want all of them", shared, total)
					}
					if err := srv2.Close(); err != nil {
						t.Fatal(err)
					}
					if after, _ := imageOnDisk(t, spec.Dir, "main"); !bytes.Equal(after, data) || srv2.Metrics().CheckpointsTotal() != 0 {
						t.Errorf("Close of an unmutated flat boot wrote an image (%d checkpoints)", srv2.Metrics().CheckpointsTotal())
					}
				}
				return
			}

			// Degraded: liveness stays green; readiness and the index's
			// routes go 503 with the reason; nothing is guessed.
			if inst.Healthy() || !strings.Contains(inst.FailReason(), row.reason) {
				t.Fatalf("Healthy=%v reason %q, want unhealthy mentioning %q", inst.Healthy(), inst.FailReason(), row.reason)
			}
			if inst.ReadIndex() != nil {
				t.Error("an index that failed to boot still has a read view")
			}
			if code, _ := get("/healthz"); code != http.StatusOK {
				t.Errorf("/healthz = %d, want 200", code)
			}
			if code, body := get("/readyz"); code != http.StatusServiceUnavailable || !strings.Contains(body, row.reason) {
				t.Errorf("/readyz = %d (%s), want 503 mentioning %q", code, body, row.reason)
			}
			resp, err := http.Post(ts.URL+"/v1/query", "application/json",
				strings.NewReader(`{"relations":["overlap"],"ref":[0,0,100,100]}`))
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusServiceUnavailable {
				t.Errorf("query on a degraded index = %d, want 503 (body %s)", resp.StatusCode, body)
			}
			if err := inst.Insert(added.Rect, added.OID); err == nil {
				t.Error("a degraded index accepted a mutation")
			}
			_, metrics := get("/metrics")
			if !strings.Contains(metrics, `topod_index_healthy{index="main"} 0`) {
				t.Errorf("metrics missing unhealthy gauge:\n%s", metrics)
			}
			if !strings.Contains(metrics, "topod_checksum_failures_total") {
				t.Errorf("metrics missing checksum failure counter")
			}
		})
	}
}

// TestFirstMutationMaterialises pins what the first mutation after a
// boot from a quiet checkpoint costs: the boot already adopted the
// image's nodes as the tree, having written none of them, so the
// mutation is acknowledged with only the nodes on its own path written —
// asserted on structure, not on a clock: every other node the tree holds
// is still the image's — and the next checkpoint publishes an image that
// includes it, making the following boot flat again.
func TestFirstMutationMaterialises(t *testing.T) {
	for _, kind := range index.AllKinds() {
		t.Run(kind.String(), func(t *testing.T) {
			d := workload.NewDataset(workload.Medium, 200, 0, 23)
			spec := IndexSpec{Name: "main", Kind: kind, PageSize: 512, Dir: t.TempDir(), Fsync: wal.SyncNever}
			srv := New(Config{})
			if _, err := srv.AddIndex(spec, d.Items); err != nil {
				t.Fatal(err)
			}
			if err := srv.Close(); err != nil {
				t.Fatal(err)
			}

			srv2 := New(Config{})
			inst, err := srv2.AddIndex(spec, nil)
			if err != nil {
				t.Fatal(err)
			}
			_, image := imageOnDisk(t, spec.Dir, "main")
			tree := inst.ReadIndex()
			if inst.Backend() != "flat" || tree == nil {
				t.Fatalf("backend = %q with tree %T, want flat and a tree", inst.Backend(), tree)
			}
			if shared, total := image.NodesSharedWith(tree); shared != total || tree.IOStats().Writes != 0 {
				t.Fatalf("boot: the tree holds %d of the image's %d nodes and wrote %d pages, want all and none",
					shared, total, tree.IOStats().Writes)
			}
			muts := []wal.Record{
				{Op: wal.OpInsert, OID: 9001, Rect: geom.R(10, 10, 12, 12)},
				{Op: wal.OpDelete, OID: d.Items[5].OID, Rect: d.Items[5].Rect},
			}
			for i, m := range muts {
				if err := mutate(inst, m); err != nil {
					t.Fatalf("%s on a flat-booted index: %v", m.Op, err)
				}
				// The acked mutation must be visible on the read path at once.
				assertSameAnswers(t, "after mutation", inst.ReadIndex(), groundTruth(t, d.Items, muts[:i+1]))
				if i > 0 {
					continue
				}
				// One insert into an adopted tree: a root-to-leaf path (every
				// leaf the rectangle reaches, on an R+-tree) and at most a
				// split per level were written, against one write per node
				// for a bulk load; the rest is still the image's.
				touched := uint64(3 * image.Height())
				shared, total := image.NodesSharedWith(tree)
				if w := tree.IOStats().Writes; w == 0 || w > touched || total < 20 {
					t.Fatalf("first mutation wrote %d pages of a %d-node tree, want 1..%d", w, total, touched)
				}
				if uint64(total-shared) > touched {
					t.Fatalf("tree holds %d of the image's %d nodes after one insert, want all but %d", shared, total, touched)
				}
			}
			if err := srv2.Close(); err != nil {
				t.Fatal(err)
			}

			srv3 := New(Config{})
			inst3, err := srv3.AddIndex(spec, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer srv3.Close()
			if inst3.Backend() != "flat" {
				t.Fatalf("post-mutation reboot backend = %q, want flat (%s)", inst3.Backend(), inst3.FailReason())
			}
			assertSameAnswers(t, "flat reboot with mutations", inst3.ReadIndex(), groundTruth(t, d.Items, muts))
		})
	}
}

// TestMaterialiseOtherPageSize covers the one image a boot does not
// adopt: written under a larger -pagesize, its nodes hold more entries
// than a page of the configured size, so charging them one access each
// would misstate the paged cost. The tree is then rebuilt from the
// image's entries, holds none of its nodes, and satisfies the fill
// invariants of the configured size; the log says which path ran. The
// other way round — a smaller -pagesize's nodes fit — adopts.
func TestMaterialiseOtherPageSize(t *testing.T) {
	for _, tc := range []struct {
		name            string
		written, booted int
		adopted         bool
		logged          string
	}{
		{"image of a larger page size is rebuilt", 2008, 512, false, "rebuilding the working tree"},
		{"image of a smaller page size is adopted", 512, 2008, true, "adopted the checkpoint image"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := workload.NewDataset(workload.Medium, 400, 0, 29)
			spec := IndexSpec{Name: "main", Kind: index.KindRStar, PageSize: tc.written, Dir: t.TempDir(), Fsync: wal.SyncNever}
			srv := New(Config{})
			if _, err := srv.AddIndex(spec, d.Items); err != nil {
				t.Fatal(err)
			}
			if err := srv.Close(); err != nil {
				t.Fatal(err)
			}

			spec.PageSize = tc.booted
			var logged bytes.Buffer
			log.SetOutput(&logged)
			defer log.SetOutput(os.Stderr)
			srv2 := New(Config{})
			inst, err := srv2.AddIndex(spec, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer srv2.Close()
			if inst.Backend() != "flat" {
				t.Fatalf("backend %q (%s), want flat: the image itself is valid at any page size", inst.Backend(), inst.FailReason())
			}
			if !strings.Contains(logged.String(), tc.logged) {
				t.Errorf("log %q does not say %q", logged.String(), tc.logged)
			}
			_, image := imageOnDisk(t, spec.Dir, "main")
			shared, total := image.NodesSharedWith(inst.ReadIndex())
			if tc.adopted != (shared > 0) {
				t.Fatalf("tree holds %d of the image's %d nodes, adoption expected: %v", shared, total, tc.adopted)
			}
			if !tc.adopted {
				if err := inst.ReadIndex().(*rtree.Tree).CheckInvariants(); err != nil {
					t.Fatalf("rebuilt tree: %v", err)
				}
			}
			assertSameAnswers(t, "booted state", inst.ReadIndex(), groundTruth(t, d.Items, nil))
			added := wal.Record{Op: wal.OpInsert, OID: 9001, Rect: geom.R(10, 10, 12, 12)}
			if err := mutate(inst, added); err != nil {
				t.Fatal(err)
			}
			assertSameAnswers(t, "after mutation", inst.ReadIndex(), groundTruth(t, d.Items, []wal.Record{added}))
		})
	}
}

// TestUnreadableDirectories pins "never build over data we cannot
// read": what AddIndex makes of files it did not write this run.
func TestUnreadableDirectories(t *testing.T) {
	touch := func(t *testing.T, dir string, names ...string) {
		for _, name := range names {
			if err := os.WriteFile(filepath.Join(dir, name), []byte("left over"), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	// checkpointed leaves a cleanly closed index in dir, then the
	// leftovers beside it.
	checkpointed := func(leftovers ...string) func(*testing.T, string) {
		return func(t *testing.T, dir string) {
			srv := New(Config{})
			if _, err := srv.AddIndex(IndexSpec{Name: "main", Kind: index.KindRTree, PageSize: 512, Dir: dir}, nil); err != nil {
				t.Fatal(err)
			}
			if err := srv.Close(); err != nil {
				t.Fatal(err)
			}
			touch(t, dir, leftovers...)
		}
	}
	rows := []struct {
		name    string
		prepare func(t *testing.T, dir string)
		tiles   int    // what detectTiles must report
		shards  int    // IndexSpec.Shards of the boot
		refuse  string // AddIndex must fail naming this file; "" boots
	}{
		{
			name:    "legacy paged snapshot",
			prepare: func(t *testing.T, dir string) { touch(t, dir, "main.snap", "main.pages", "main.wal.3") },
			refuse:  "main.snap",
		},
		{
			// Legacy tile snapshots do not make a tile layout: only
			// files this binary can read do.
			name:    "legacy per-tile snapshots",
			prepare: func(t *testing.T, dir string) { touch(t, dir, "main.t0.snap", "main.t1.snap") },
			refuse:  "main.t0.snap",
		},
		{
			// ...and the single-index layout on disk wins over -shards.
			name:    "legacy snapshot beside a checkpoint image it can boot from",
			shards:  2,
			prepare: checkpointed("main.snap"),
		},
		{
			// Only the boot that replays nothing has to clean up; every
			// other boot checkpoints, which reuses the name.
			name:    "tmp file of a checkpoint cut short, WAL quiet",
			prepare: checkpointed("main.flat.tmp"),
		},
		{
			name:    "tile layout with a hole",
			prepare: func(t *testing.T, dir string) { touch(t, dir, "main.t2.wal.1") },
			tiles:   3,
		},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			dir := t.TempDir()
			row.prepare(t, dir)
			if got := detectTiles(dir, "main"); got != row.tiles {
				t.Errorf("detectTiles = %d, want %d", got, row.tiles)
			}
			if row.tiles > 0 {
				return
			}
			srv := New(Config{})
			defer srv.Close()
			inst, err := srv.AddIndex(IndexSpec{Name: "main", Kind: index.KindRTree, PageSize: 512, Dir: dir, Shards: row.shards},
				[]index.Item{{Rect: geom.R(0, 0, 1, 1), OID: 1}})
			if row.refuse != "" {
				if err == nil || !strings.Contains(err.Error(), row.refuse) || !strings.Contains(err.Error(), "-flat") {
					t.Fatalf("AddIndex error = %v, want a refusal naming %s and the -flat checkpoint", err, row.refuse)
				}
				if _, err := os.Stat(filepath.Join(dir, "main.flat")); err == nil {
					t.Fatal("a fresh index was built over the legacy directory")
				}
				return
			}
			if err != nil || !inst.Healthy() || inst.Sharded() != 0 || inst.Backend() != "flat" {
				t.Fatalf("AddIndex: %v, instance %+v", err, inst)
			}
			if _, err := os.Stat(filepath.Join(dir, "main.flat.tmp")); err == nil {
				t.Error("boot left main.flat.tmp behind")
			}
		})
	}
}

func TestCheckpointEveryRotatesWAL(t *testing.T) {
	dir := t.TempDir()
	spec := IndexSpec{
		Name: "main", Kind: index.KindRTree, PageSize: 512, Dir: dir,
		Fsync: wal.SyncNever, CheckpointEvery: 4,
	}
	srv := New(Config{})
	inst, err := srv.AddIndex(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 9; i++ {
		if err := inst.Insert(geom.R(float64(i), 0, float64(i)+1, 1), uint64(100+i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := srv.Metrics().CheckpointsTotal(); got != 2 {
		t.Errorf("checkpoints_total = %d after 9 inserts at every=4, want 2", got)
	}
	if got := srv.Metrics().WALRecordsTotal(); got != 9 {
		t.Errorf("wal_records_total = %d, want 9", got)
	}
	// Exactly one WAL generation remains and the image names it.
	assertTwoFiles(t, "after two rotations", dir, "main")
	if _, err := os.Stat(filepath.Join(dir, "main.wal.3")); err != nil {
		t.Errorf("the surviving log is not generation 3: %v", err)
	}
	// The crash-simulated reopen replays only the records past the
	// last checkpoint (9 - 2*4 = 1).
	abandon(inst)
	srv2 := New(Config{})
	inst2, err := srv2.AddIndex(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	if inst2.Replayed != 1 {
		t.Errorf("replayed %d records, want 1", inst2.Replayed)
	}
	if inst2.ReadIndex().Len() != 9 {
		t.Errorf("recovered %d objects, want 9", inst2.ReadIndex().Len())
	}
}

// TestGenerationInFlatHeader pins where the checkpoint generation
// lives: in the MBRFLAT1 header, naming the one WAL that continues it.
func TestGenerationInFlatHeader(t *testing.T) {
	dir := t.TempDir()
	spec := IndexSpec{Name: "g", Kind: index.KindRTree, PageSize: 512, Dir: dir,
		Fsync: wal.SyncNever, CheckpointEvery: -1}
	srv := New(Config{})
	inst, err := srv.AddIndex(spec, []index.Item{{Rect: geom.R(0, 0, 1, 1), OID: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil { // nothing logged since: no third image
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "g.flat"))
	if err != nil {
		t.Fatal(err)
	}
	flat, err := rtree.OpenFlatBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	if gen := flat.Generation(); gen != 2 {
		t.Errorf("image covers generation %d, want 2 (build + 1 checkpoint)", gen)
	}
	if _, err := os.Stat(filepath.Join(dir, "g.wal.2")); err != nil {
		t.Errorf("no log of the image's generation: %v", err)
	}
	assertTwoFiles(t, "after close", dir, "g")
}

// TestCheckpointsBesideReaders is the regression test for the torn
// checkpoints the bench harness found (bench/README.md "Findings"):
// readers hammer /v1/query while a writer crosses forty automatic
// checkpoints. Every checkpoint must boot healthy from a copy of the
// directory, and after the process state is abandoned the directory
// alone must answer like a brute-force scan over the acked history.
// When a checkpoint copied a page file in which readers' snapshot
// releases were freeing pages, such a boot found corrupt pages and
// answered 503 — at this size on about every second run of this test.
func TestCheckpointsBesideReaders(t *testing.T) {
	const (
		every       = 5
		checkpoints = 40
		writes      = checkpoints*every + 3 // ends between two checkpoints
		readers     = 4
	)
	d := workload.NewDataset(workload.Medium, 20000, 0, 41)
	spec := IndexSpec{
		Name: "main", Kind: index.KindRStar, PageSize: 512, Bulk: true, Dir: t.TempDir(),
		Fsync: wal.SyncNever, CheckpointEvery: every,
	}
	srv := New(Config{})
	inst, err := srv.AddIndex(spec, d.Items)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())

	stop := make(chan struct{})
	errc := make(chan error, readers)
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Post(ts.URL+"/v1/query", "application/json",
					strings.NewReader(`{"relations":["not_disjoint"],"ref":[300,300,400,400]}`))
				if err == nil {
					_, err = io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if err == nil && resp.StatusCode != http.StatusOK {
						err = fmt.Errorf("reader got HTTP %d", resp.StatusCode)
					}
				}
				if err != nil {
					errc <- err
					return
				}
			}
		}()
	}

	// bootFrom opens the index from a directory alone and requires it
	// healthy with exactly replayed WAL records on top of the image.
	bootFrom := func(label, dir string, replayed int) *Instance {
		respec := spec
		respec.Dir = dir
		inst, err := New(Config{}).AddIndex(respec, nil)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if !inst.Healthy() || inst.Replayed != replayed {
			t.Fatalf("%s: healthy=%v (%s), replayed %d WAL records, want healthy and %d",
				label, inst.Healthy(), inst.FailReason(), inst.Replayed, replayed)
		}
		return inst
	}
	live := make(map[uint64]geom.Rect, len(d.Items)+writes)
	for _, it := range d.Items {
		live[it.OID] = it.Rect
	}
	for i := 0; i < writes; i++ {
		// Alternate fresh inserts with deletes of seed objects, so pages
		// are retired as well as allocated.
		m := wal.Record{Op: wal.OpInsert, OID: uint64(50_000 + i), Rect: geom.R(float64(i%97)*10, float64(i%89)*11, float64(i%97)*10+6, float64(i%89)*11+4)}
		if i%2 == 1 {
			it := d.Items[i]
			m = wal.Record{Op: wal.OpDelete, OID: it.OID, Rect: it.Rect}
		}
		if err := mutate(inst, m); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		if m.Op == wal.OpInsert {
			live[m.OID] = m.Rect
		} else {
			delete(live, m.OID)
		}
		if (i+1)%every == 0 {
			// This write checkpointed, and the lone writer is here: the
			// durable files stand still while they are copied.
			snap := t.TempDir()
			if err := os.CopyFS(snap, os.DirFS(spec.Dir)); err != nil {
				t.Fatal(err)
			}
			abandon(bootFrom(fmt.Sprintf("checkpoint %d", (i+1)/every), snap, 0))
		}
	}
	close(stop)
	wg.Wait()
	ts.Close()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
	if got := srv.Metrics().CheckpointsTotal(); got != checkpoints {
		t.Fatalf("writer crossed %d checkpoints, want %d", got, checkpoints)
	}
	abandon(inst)

	inst2 := bootFrom("after the crash", spec.Dir, writes%every)
	defer inst2.Close()
	for _, win := range durabilityWindows {
		var want []uint64
		for oid, r := range live {
			if r.Intersects(win) {
				want = append(want, oid)
			}
		}
		slices.Sort(want)
		if got := queryOIDs(t, inst2.ReadIndex(), win); !slices.Equal(got, want) {
			t.Fatalf("window %v: reopened index answers %d objects, brute force over the acked history %d", win, len(got), len(want))
		}
	}
}
