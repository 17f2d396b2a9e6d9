package query

import (
	"bytes"
	"context"
	"fmt"
	"sort"
	"testing"

	"mbrtopo/internal/geom"
	"mbrtopo/internal/index"
	"mbrtopo/internal/rtree"
	"mbrtopo/internal/topo"
	"mbrtopo/internal/workload"
)

// differentialPageSize keeps the trees several levels deep at the
// differential test's cardinalities.
const differentialPageSize = 408

// TestFlatDifferential is the save-and-reopen equivalence proof: for
// every tree kind × workload shape, the tree adopted from a flat
// snapshot must answer every topological query (all 8 relations), kNN
// search and spatial join with exactly the source tree's result sets
// and bit-identical node-access statistics. The snapshot is written and
// reopened through the real serialization, so this also covers the
// format round trip.
func TestFlatDifferential(t *testing.T) {
	workloads := map[string]*workload.Dataset{
		"uniform":   workload.NewDataset(workload.Small, 1500, 12, 101),
		"clustered": workload.ClusteredDataset(workload.Small, 1500, 12, 8, 202),
	}
	for wname, ds := range workloads {
		for _, kind := range index.AllKinds() {
			name := wname + "/" + kind.String()
			t.Run(name, func(t *testing.T) {
				idx, err := index.NewWithPageSize(kind, differentialPageSize)
				if err != nil {
					t.Fatal(err)
				}
				if err := index.Load(idx, ds.Items); err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				if err := index.WriteFlat(idx, &buf, 9); err != nil {
					t.Fatal(err)
				}
				image, err := rtree.OpenFlatBytes(buf.Bytes())
				if err != nil {
					t.Fatal(err)
				}
				flat, err := index.Adopt(kind, differentialPageSize, image)
				if err != nil {
					t.Fatal(err)
				}
				paged := &Processor{Idx: idx}
				flatP := &Processor{Idx: flat}

				for _, rel := range topo.All() {
					for qi, q := range ds.Queries {
						label := fmt.Sprintf("%s query %d", rel, qi)
						pr := streamEqualsBatch(t, label+" paged", paged, topo.NewSet(rel), q)
						fr := streamEqualsBatch(t, label+" flat", flatP, topo.NewSet(rel), q)
						if pr.Stats != fr.Stats {
							t.Fatalf("%s query %d: stats diverge: paged %+v flat %+v", rel, qi, pr.Stats, fr.Stats)
						}
						if len(pr.Matches) != len(fr.Matches) {
							t.Fatalf("%s query %d: %d paged vs %d flat matches", rel, qi, len(pr.Matches), len(fr.Matches))
						}
						for i := range pr.Matches {
							if pr.Matches[i] != fr.Matches[i] {
								t.Fatalf("%s query %d: match %d differs: %+v vs %+v",
									rel, qi, i, pr.Matches[i], fr.Matches[i])
							}
						}
					}
				}

				for _, p := range []geom.Point{{X: 500, Y: 500}, {X: 0, Y: 1000}, {X: 999, Y: 1}} {
					for _, k := range []int{1, 10} {
						pn, pts, err := idx.NearestCtx(context.Background(), p, k)
						if err != nil {
							t.Fatalf("paged kNN: %v", err)
						}
						fn, fts, err := flat.NearestCtx(context.Background(), p, k)
						if err != nil {
							t.Fatalf("flat kNN: %v", err)
						}
						if pts != fts {
							t.Fatalf("kNN %v k=%d: stats diverge: paged %+v flat %+v", p, k, pts, fts)
						}
						if len(pn) != len(fn) {
							t.Fatalf("kNN %v k=%d: %d paged vs %d flat", p, k, len(pn), len(fn))
						}
						for i := range pn {
							if pn[i] != fn[i] {
								t.Fatalf("kNN %v k=%d: neighbour %d differs", p, k, i)
							}
						}
					}
				}

				if idx.CoveringNodeRects() {
					rels := topo.NewSet(topo.Overlap, topo.Meet)
					opts := JoinOptions{Workers: 1}
					pj, err := JoinTopological(idx, idx, rels, opts)
					if err != nil {
						t.Fatalf("paged join: %v", err)
					}
					fj, err := JoinTopological(flat, flat, rels, opts)
					if err != nil {
						t.Fatalf("flat join: %v", err)
					}
					if pj.Stats != fj.Stats {
						t.Fatalf("join stats diverge: paged %+v flat %+v", pj.Stats, fj.Stats)
					}
					sortPairs := func(ps []JoinPair) {
						sort.Slice(ps, func(i, j int) bool {
							if ps[i].LeftOID != ps[j].LeftOID {
								return ps[i].LeftOID < ps[j].LeftOID
							}
							return ps[i].RightOID < ps[j].RightOID
						})
					}
					sortPairs(pj.Pairs)
					sortPairs(fj.Pairs)
					if len(pj.Pairs) != len(fj.Pairs) {
						t.Fatalf("join found %d paged vs %d flat pairs", len(pj.Pairs), len(fj.Pairs))
					}
					for i := range pj.Pairs {
						if pj.Pairs[i] != fj.Pairs[i] {
							t.Fatalf("join pair %d differs: %+v vs %+v", i, pj.Pairs[i], fj.Pairs[i])
						}
					}
				} else {
					// An R+-tree back from its snapshot must be rejected by
					// the join, like its source.
					if err := CanJoin(flat, flat); err == nil {
						t.Fatal("CanJoin accepted an R+-tree adopted from its snapshot")
					}
				}
			})
		}
	}
}
