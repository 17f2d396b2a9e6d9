package server

import (
	"fmt"
	"strings"
	"testing"

	"mbrtopo/internal/geom"
	"mbrtopo/internal/index"
	"mbrtopo/internal/topo"
	"mbrtopo/internal/wal"
	"mbrtopo/internal/workload"
)

// writeMode is one way an index can be served: writes go to target,
// whose server owns the WAL counter.
type writeMode struct {
	name   string
	target *Instance
	srv    *Server
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
		return writeMode{target: inst, srv: srv}
	}
	modes := []writeMode{single(IndexSpec{}), single(IndexSpec{Dir: t.TempDir()})}
	modes[0].name, modes[1].name = "non-durable", "durable"
	return modes
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
			fmt.Fprintf(&b, " %v", queryOIDs(t, inst.ReadIndex(), topo.NotDisjoint, win))
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
