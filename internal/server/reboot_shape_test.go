package server

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"mbrtopo/internal/geom"
	"mbrtopo/internal/index"
	"mbrtopo/internal/topo"
	"mbrtopo/internal/wal"
	"mbrtopo/internal/workload"
)

// nodeAccessProfile runs a fixed set of queries — every relation over
// the durability windows, plus two kNN searches — and returns each
// one's NodeAccesses: a fingerprint of the tree's shape, not of its
// contents.
func nodeAccessProfile(t *testing.T, inst *Instance) map[string]uint64 {
	t.Helper()
	proc := inst.ReadProc()
	if proc == nil {
		t.Fatalf("instance has no read view (%s)", inst.FailReason())
	}
	out := map[string]uint64{}
	for _, rel := range topo.All() {
		for wi, win := range durabilityWindows {
			res, err := proc.QuerySetMBR(topo.NewSet(rel), win)
			if err != nil {
				t.Fatalf("%s window %d: %v", rel, wi, err)
			}
			out[fmt.Sprintf("%s/%d", rel, wi)] = res.Stats.NodeAccesses
		}
	}
	for i, p := range []geom.Point{{X: 500, Y: 500}, {X: 20, Y: 980}} {
		_, ts, err := inst.ReadIndex().NearestCtx(context.Background(), p, 10)
		if err != nil {
			t.Fatal(err)
		}
		out[fmt.Sprintf("knn/%d", i)] = ts.NodeAccesses
	}
	return out
}

func assertSameProfile(t *testing.T, label string, got, want map[string]uint64) {
	t.Helper()
	for key, w := range want {
		if got[key] != w {
			t.Errorf("%s: %s reads %d nodes, the never-rebooted twin %d", label, key, got[key], w)
		}
	}
}

// TestRebootKeepsTreeShape pins what a restart does to the paper's
// metric: nothing. A tree grown one insert at a time — quadratic splits,
// R* forced reinsertion, R+ cuts — has a shape no bulk load reproduces,
// so every path that turns a checkpoint image back into a mutable tree
// (first mutation after a flat boot, WAL recovery, follower bootstrap)
// must come out with the per-query node accesses of a twin that was
// built the same way, given the same mutation, and never rebooted.
func TestRebootKeepsTreeShape(t *testing.T) {
	mutation := wal.Record{Op: wal.OpInsert, OID: 900001, Rect: geom.R(60, 60, 940, 940)}
	for _, kind := range index.AllKinds() {
		t.Run(kind.String(), func(t *testing.T) {
			d := workload.NewDataset(workload.Medium, 600, 0, 1995)
			build := func(dir string) (*Server, *Instance) {
				srv := New(Config{})
				inst, err := srv.AddIndex(IndexSpec{Name: "main", Kind: kind, PageSize: 512,
					Dir: dir, Fsync: wal.SyncNever, CheckpointEvery: -1}, d.Items)
				if err != nil {
					t.Fatal(err)
				}
				return srv, inst
			}
			reboot := func(dir, backend string) *Instance {
				srv, inst := build(dir)
				t.Cleanup(func() { srv.Close() })
				if !inst.Healthy() || inst.Backend() != backend {
					t.Fatalf("reboot came up %q (%s), want %q", inst.Backend(), inst.FailReason(), backend)
				}
				return inst
			}

			_, twin := build("")
			before := nodeAccessProfile(t, twin)
			if err := mutate(twin, mutation); err != nil {
				t.Fatal(err)
			}
			after := nodeAccessProfile(t, twin)
			if fmt.Sprint(before) == fmt.Sprint(after) {
				t.Fatal("the mutation does not show in the profile; pick one that does")
			}

			t.Run("flat boot, first mutation", func(t *testing.T) {
				dir := t.TempDir()
				srv, _ := build(dir)
				if err := srv.Close(); err != nil {
					t.Fatal(err)
				}
				inst := reboot(dir, "flat")
				assertSameProfile(t, "served from the image", nodeAccessProfile(t, inst), before)
				if err := mutate(inst, mutation); err != nil {
					t.Fatal(err)
				}
				assertSameProfile(t, "adopted and mutated", nodeAccessProfile(t, inst), after)
			})

			t.Run("recovered", func(t *testing.T) {
				dir := t.TempDir()
				_, inst := build(dir)
				if err := mutate(inst, mutation); err != nil {
					t.Fatal(err)
				}
				abandon(inst)
				inst = reboot(dir, "recovered")
				if inst.Replayed != 1 {
					t.Fatalf("replayed %d records, want 1", inst.Replayed)
				}
				assertSameProfile(t, "adopted and replayed", nodeAccessProfile(t, inst), after)
			})

			t.Run("follower bootstrap", func(t *testing.T) {
				dir := t.TempDir()
				srv, primary := build(dir)
				defer srv.Close()
				image, err := os.ReadFile(filepath.Join(dir, "main.flat"))
				if err != nil {
					t.Fatal(err)
				}
				gen, seq, _ := primary.dur.position()

				fsrv := New(Config{})
				defer fsrv.Close()
				finst, err := fsrv.AddIndex(IndexSpec{Name: "main", Kind: kind, PageSize: 512,
					Dir: t.TempDir(), Fsync: wal.SyncNever, Follower: true}, nil)
				if err != nil {
					t.Fatal(err)
				}
				target := &replica{inst: finst}
				if err := target.bootstrap(replPos{gen, seq}, bytes.NewReader(image), int64(len(image))); err != nil {
					t.Fatal(err)
				}
				assertSameProfile(t, "bootstrapped", nodeAccessProfile(t, finst), before)
				if err := target.apply(replPos{gen, seq}, []wal.Record{mutation}); err != nil {
					t.Fatal(err)
				}
				assertSameProfile(t, "bootstrapped and applied", nodeAccessProfile(t, finst), after)
			})
		})
	}
}
