package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"mbrtopo/internal/geom"
	"mbrtopo/internal/index"
	"mbrtopo/internal/rtree"
	"mbrtopo/internal/topo"
	"mbrtopo/internal/wal"
	"mbrtopo/internal/watch"
	"mbrtopo/internal/workload"
)

// writeMode is one way an index can be served. Writes go to target;
// their effects are observed on seen (the same instance, except under
// replication), whose server owns the WAL counter.
type writeMode struct {
	name    string
	target  *Instance
	seen    *Instance
	srv     *Server
	durable bool
	// settle blocks until seen reflects every write target acknowledged.
	settle func()
}

func writeModes(t *testing.T, items []index.Item) []writeMode {
	modes := localWriteModes(t, items)

	psrv, pts, _ := newReplPrimary(t, 0, 1024)
	pinst, _ := psrv.instance("main")
	if err := pinst.InsertBatch(items); err != nil {
		t.Fatal(err)
	}
	fsrv, _ := newReplFollower(t, pts.URL, nil, FollowConfig{})
	finst, _ := fsrv.instance("main")
	settle := func() { waitCaughtUp(t, psrv, fsrv) }
	settle()
	return append(modes, writeMode{name: "follower-applied", target: pinst, seen: finst, srv: fsrv, durable: true, settle: settle})
}

// localWriteModes are the modes whose writes arrive as Instance.mutate
// calls: one tree, one durable tree.
func localWriteModes(t *testing.T, items []index.Item) []writeMode {
	single := func(spec IndexSpec) writeMode {
		srv := New(Config{})
		spec.Name, spec.Kind, spec.PageSize, spec.Fsync = "main", index.KindRTree, 512, wal.SyncNever
		inst, err := srv.AddIndex(spec, items)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		return writeMode{target: inst, seen: inst, srv: srv, durable: spec.Dir != "", settle: func() {}}
	}
	modes := []writeMode{single(IndexSpec{}), single(IndexSpec{Dir: t.TempDir()})}
	modes[0].name, modes[1].name = "non-durable", "durable"
	return modes
}

// TestWritePathDifferential checks that an insert, a delete and a bulk
// load have the same four observable effects however the index is
// served: answers equal a brute-force scan of the acknowledged history,
// the generation advances once per acknowledged call (once per applied
// record on a replica, which never sees the calls), a watch subscriber
// — registered with the watch table, as /v1/watch does — sees exactly
// the enter/exit events of the scan's before/after difference, and a
// durable index counts one WAL record per mutation.
func TestWritePathDifferential(t *testing.T) {
	d := workload.NewDataset(workload.Medium, 300, 0, 1995)
	ref := geom.R(200, 200, 700, 700)
	windows := append([]geom.Rect{ref}, durabilityWindows...)
	victim := d.Items[slices.IndexFunc(d.Items, func(it index.Item) bool { return it.Rect.Intersects(ref) })]
	steps := []struct {
		name  string
		recs  []wal.Record
		apply func(inst *Instance) error
	}{
		{"insert", []wal.Record{{Op: wal.OpInsert, OID: 9001, Rect: geom.R(300, 300, 320, 330)}}, nil},
		{"insert outside the watched region", []wal.Record{{Op: wal.OpInsert, OID: 9002, Rect: geom.R(10, 10, 20, 20)}}, nil},
		{"delete", []wal.Record{{Op: wal.OpDelete, OID: victim.OID, Rect: victim.Rect}}, nil},
		{"bulk", []wal.Record{
			{Op: wal.OpInsert, OID: 9100, Rect: geom.R(650, 650, 720, 720)},
			{Op: wal.OpInsert, OID: 9101, Rect: geom.R(900, 900, 910, 910)},
			{Op: wal.OpInsert, OID: 9102, Rect: geom.R(400, 100, 420, 250)},
			{Op: wal.OpInsert, OID: 9103, Rect: geom.R(0, 500, 199, 520)},
		}, func(inst *Instance) error {
			return inst.InsertBatch([]rtree.Record{
				{OID: 9100, Rect: geom.R(650, 650, 720, 720)}, {OID: 9101, Rect: geom.R(900, 900, 910, 910)},
				{OID: 9102, Rect: geom.R(400, 100, 420, 250)}, {OID: 9103, Rect: geom.R(0, 500, 199, 520)},
			})
		}},
		{"delete of the inserted", []wal.Record{{Op: wal.OpDelete, OID: 9001, Rect: geom.R(300, 300, 320, 330)}}, nil},
	}

	for _, mode := range writeModes(t, d.Items) {
		t.Run(mode.name, func(t *testing.T) {
			oracle := map[wal.Record]bool{} // the live (oid, rect) entries, Op left zero
			for _, it := range d.Items {
				oracle[wal.Record{OID: it.OID, Rect: it.Rect}] = true
			}
			scan := func(win geom.Rect) []uint64 {
				var oids []uint64
				for e := range oracle {
					if e.Rect.Intersects(win) {
						oids = append(oids, e.OID)
					}
				}
				slices.Sort(oids)
				return oids
			}
			sub, err := mode.seen.watch.Subscribe(ref, topo.NotDisjoint, 64)
			if err != nil {
				t.Fatal(err)
			}
			defer mode.seen.watch.Unsubscribe(sub)

			for _, step := range steps {
				before := scan(ref)
				gen, walRecords := mode.seen.Generation(), mode.srv.metrics.walRecords.Load()
				if step.apply != nil {
					err = step.apply(mode.target)
				} else {
					err = mutate(mode.target, step.recs[0])
				}
				if err != nil {
					t.Fatalf("%s: %v", step.name, err)
				}
				for _, rec := range step.recs {
					entry := wal.Record{OID: rec.OID, Rect: rec.Rect}
					if rec.Op == wal.OpInsert {
						oracle[entry] = true
					} else {
						delete(oracle, entry)
					}
				}
				mode.settle()

				for _, win := range windows {
					if got, want := queryOIDs(t, mode.seen.ReadIndex(), win), scan(win); !slices.Equal(got, want) {
						t.Fatalf("%s: window %v answers %v, brute force says %v", step.name, win, got, want)
					}
				}
				wantGen := uint64(1)
				if mode.seen != mode.target {
					wantGen = uint64(len(step.recs))
				}
				if got := mode.seen.Generation() - gen; got != wantGen {
					t.Fatalf("%s: generation advanced by %d, want %d", step.name, got, wantGen)
				}
				var got, want []string
				for drained := false; !drained; {
					select {
					case ev := <-sub.Events():
						got = append(got, fmt.Sprintf("%s %d", ev.Type, ev.OID))
					default:
						drained = true
					}
				}
				after := scan(ref)
				for _, oid := range after {
					if !slices.Contains(before, oid) {
						want = append(want, fmt.Sprintf("%s %d", watch.Enter, oid))
					}
				}
				for _, oid := range before {
					if !slices.Contains(after, oid) {
						want = append(want, fmt.Sprintf("%s %d", watch.Exit, oid))
					}
				}
				slices.Sort(got)
				slices.Sort(want)
				if !slices.Equal(got, want) {
					t.Fatalf("%s: watch events %v, brute-force difference is %v", step.name, got, want)
				}
				if got := mode.srv.metrics.walRecords.Load() - walRecords; mode.durable && got != uint64(len(step.recs)) {
					t.Fatalf("%s: topod_wal_records_total rose by %d, want %d", step.name, got, len(step.recs))
				}
			}
			// A refused mutation changes nothing.
			gen := mode.target.Generation()
			if err := mode.target.Delete(geom.R(1, 1, 2, 2), 424242); err == nil || mode.target.Generation() != gen {
				t.Fatalf("delete of a missing entry: err %v, generation %d → %d", err, gen, mode.target.Generation())
			}
		})
	}
}

// TestMutateRefusesMixedBatches pins what the watch table may assume
// about a commit: it is one record, or inserts only. No batch holds a
// delete — so none moves an object, a delete and an insert of one id —
// because Instance.mutate refuses it whole: tree, WAL position,
// generation and the table's batch count stay where they were. (A
// follower applies and publishes its records one at a time.) Whoever gives
// /v1/move a two-record commit has to take this test down first, and
// then the table's pass needs an arm for len(before) == len(after) == 1
// again.
func TestMutateRefusesMixedBatches(t *testing.T) {
	d := workload.NewDataset(workload.Medium, 300, 0, 1995)
	victim := d.Items[0]
	batches := map[string][]wal.Record{
		"an insert and a delete": {
			{Op: wal.OpInsert, OID: 9500, Rect: geom.R(300, 300, 320, 330)},
			{Op: wal.OpDelete, OID: victim.OID, Rect: victim.Rect},
		},
		"a move": {
			{Op: wal.OpDelete, OID: victim.OID, Rect: victim.Rect},
			{Op: wal.OpInsert, OID: victim.OID, Rect: geom.R(300, 300, 320, 330)},
		},
	}
	// state is everything a commit moves, as one comparable string.
	state := func(mode writeMode) string {
		inst := mode.target
		var b strings.Builder
		fmt.Fprintf(&b, "len %d gen %d batches %d wal-records %d", inst.ReadIndex().Len(), inst.Generation(),
			inst.watch.Counters().Batches, mode.srv.metrics.walRecords.Load())
		if inst.dur != nil {
			gen, seq, _ := inst.dur.position()
			fmt.Fprintf(&b, " wal@%d/%d", gen, seq)
		}
		for _, win := range durabilityWindows {
			fmt.Fprintf(&b, " %v", queryOIDs(t, inst.ReadIndex(), win))
		}
		return b.String()
	}
	for _, mode := range localWriteModes(t, d.Items) {
		t.Run(mode.name, func(t *testing.T) {
			// With a subscriber, a published commit would count as a batch.
			sub, err := mode.target.watch.Subscribe(geom.R(200, 200, 700, 700), topo.NotDisjoint, 64)
			if err != nil {
				t.Fatal(err)
			}
			defer mode.target.watch.Unsubscribe(sub)
			before := state(mode)
			for name, batch := range batches {
				if err := mode.target.mutate(batch); err == nil || !strings.Contains(err.Error(), "batches hold inserts only") {
					t.Fatalf("%s: mutate returned %v, want the inserts-only refusal", name, err)
				}
				if after := state(mode); after != before {
					t.Fatalf("%s was refused and still moved something:\n before %s\n after  %s", name, before, after)
				}
			}
			select {
			case ev := <-sub.Events():
				t.Fatalf("a refused batch produced the event %+v", ev)
			default:
			}
		})
	}
}

// TestWritePathLogFailure pins the failure leg: a mutation the log
// refuses is reported, never acknowledged, and leaves the index
// answering 503 with the operator-facing wording unchanged.
func TestWritePathLogFailure(t *testing.T) {
	fail := false
	srv := New(Config{})
	inst, err := srv.AddIndex(IndexSpec{Name: "main", Kind: index.KindRTree, PageSize: 512, Dir: t.TempDir(), Fsync: wal.SyncNever}, nil)
	if err != nil {
		t.Fatal(err)
	}
	inst.dur.faults = &faultPlan{walWrite: func(int64, int) error {
		if fail {
			return fmt.Errorf("injected disk failure")
		}
		return nil
	}}
	if err := inst.Insert(geom.R(1, 1, 2, 2), 1); err != nil {
		t.Fatal(err)
	}
	fail = true
	err = inst.Insert(geom.R(3, 3, 4, 4), 2)
	if err == nil || !strings.HasPrefix(err.Error(), "server: mutation applied but not logged: ") {
		t.Fatalf("insert with a failing log: %v", err)
	}
	if inst.Healthy() || !strings.HasPrefix(inst.FailReason(), "wal append failed: ") || !strings.Contains(inst.FailReason(), "injected disk failure") {
		t.Fatalf("healthy %v, reason %q", inst.Healthy(), inst.FailReason())
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	st, body := postStatus(t, ts.URL+"/v1/insert", UpdateRequest{OID: 3, Rect: []float64{5, 5, 6, 6}})
	if st != http.StatusServiceUnavailable || body.Error != "index main is unhealthy: "+inst.FailReason() {
		t.Fatalf("insert on the degraded index: HTTP %d %q", st, body.Error)
	}
}
