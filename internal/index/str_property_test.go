package index_test

import (
	"fmt"
	"sort"
	"testing"

	"mbrtopo/internal/geom"
	"mbrtopo/internal/index"
	"mbrtopo/internal/query"
	"mbrtopo/internal/rtree"
	"mbrtopo/internal/topo"
	"mbrtopo/internal/workload"
)

// relationOIDs runs one MBR relation query and returns the sorted
// distinct matching OIDs.
func relationOIDs(t *testing.T, idx index.Index, rel topo.Relation, ref geom.Rect) []uint64 {
	t.Helper()
	p := &query.Processor{Idx: idx}
	res, err := p.QueryMBR(rel, ref)
	if err != nil {
		t.Fatalf("%s query against %s: %v", rel, idx.Name(), err)
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
	return oids
}

// checkInvariants runs the structural invariant checker of whichever
// tree type backs the index.
func checkInvariants(t *testing.T, label string, idx index.Index) {
	t.Helper()
	var err error
	switch tr := idx.(type) {
	case *rtree.Tree:
		err = tr.CheckInvariants()
	case *rtree.RPlusTree:
		err = tr.CheckInvariants()
	default:
		t.Fatalf("%s: unknown index type %T", label, idx)
	}
	if err != nil {
		t.Fatalf("%s: invariants: %v", label, err)
	}
}

// TestBulkVsIncrementalDifferential is the STR bulk-load property
// test: for every access method, a tree built through InsertBatch
// (Sort-Tile-Recursive packed on the R-/R*-trees) must answer every
// one of the paper's eight relations identically — same sorted OID
// list — to a tree built by one-by-one inserts, on uniform and
// clustered datasets up to 10k rectangles, while both trees keep their
// structural invariants.
func TestBulkVsIncrementalDifferential(t *testing.T) {
	type dataset struct {
		name  string
		d     *workload.Dataset
		nRefs int
	}
	datasets := []dataset{
		{"uniform/100", workload.NewDataset(workload.Medium, 100, 8, 3), 8},
		{"uniform/1000", workload.NewDataset(workload.Medium, 1000, 8, 5), 8},
		{"uniform/10000", workload.NewDataset(workload.Small, 10000, 4, 7), 4},
		{"clustered/2000", workload.ClusteredDataset(workload.Medium, 2000, 8, 6, 9), 8},
		{"clustered/10000", workload.ClusteredDataset(workload.Small, 10000, 4, 10, 13), 4},
	}
	for _, kind := range index.AllKinds() {
		for _, ds := range datasets {
			t.Run(fmt.Sprintf("%s/%s", kind, ds.name), func(t *testing.T) {
				t.Parallel()
				inc, err := index.New(kind)
				if err != nil {
					t.Fatal(err)
				}
				if err := index.Load(inc, ds.d.Items); err != nil {
					t.Fatal(err)
				}
				blk, err := index.New(kind)
				if err != nil {
					t.Fatal(err)
				}
				if err := index.LoadBulk(blk, ds.d.Items); err != nil {
					t.Fatal(err)
				}

				if inc.Len() != blk.Len() {
					t.Fatalf("Len: incremental %d, bulk %d", inc.Len(), blk.Len())
				}
				checkInvariants(t, "incremental", inc)
				checkInvariants(t, "bulk", blk)

				for _, rel := range topo.All() {
					for _, ref := range ds.d.Queries[:ds.nRefs] {
						want := relationOIDs(t, inc, rel, ref)
						got := relationOIDs(t, blk, rel, ref)
						if len(got) != len(want) {
							t.Fatalf("%s %v: bulk answers %d OIDs, incremental %d", rel, ref, len(got), len(want))
						}
						for i := range got {
							if got[i] != want[i] {
								t.Fatalf("%s %v: oid[%d] = %d, want %d", rel, ref, i, got[i], want[i])
							}
						}
					}
				}
			})
		}
	}
}

// TestBulkThenIncrementalMix checks InsertBatch composes with the
// mutation path: STR-pack half the dataset, insert the rest one by
// one, delete a slice, and the answers must match a tree that took
// every mutation incrementally.
func TestBulkThenIncrementalMix(t *testing.T) {
	d := workload.NewDataset(workload.Medium, 2000, 6, 21)
	half := len(d.Items) / 2
	for _, kind := range index.AllKinds() {
		t.Run(kind.String(), func(t *testing.T) {
			t.Parallel()
			inc, err := index.New(kind)
			if err != nil {
				t.Fatal(err)
			}
			if err := index.Load(inc, d.Items); err != nil {
				t.Fatal(err)
			}
			mix, err := index.New(kind)
			if err != nil {
				t.Fatal(err)
			}
			if err := index.LoadBulk(mix, d.Items[:half]); err != nil {
				t.Fatal(err)
			}
			if err := index.LoadBulk(mix, d.Items[half:]); err != nil { // non-empty tree: batched inserts
				t.Fatal(err)
			}
			for _, idx := range []index.Index{inc, mix} {
				for _, it := range d.Items[100:200] {
					if err := idx.Delete(it.Rect, it.OID); err != nil {
						t.Fatalf("%s delete oid %d: %v", idx.Name(), it.OID, err)
					}
				}
			}
			checkInvariants(t, "mixed", mix)
			for _, rel := range topo.All() {
				for _, ref := range d.Queries {
					want := relationOIDs(t, inc, rel, ref)
					got := relationOIDs(t, mix, rel, ref)
					if len(got) != len(want) {
						t.Fatalf("%s %v: mixed answers %d OIDs, incremental %d", rel, ref, len(got), len(want))
					}
					for i := range got {
						if got[i] != want[i] {
							t.Fatalf("%s %v: oid[%d] = %d, want %d", rel, ref, i, got[i], want[i])
						}
					}
				}
			}
		})
	}
}
