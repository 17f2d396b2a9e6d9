package rtree_test

import (
	"context"
	"testing"

	"mbrtopo/internal/index"
	"mbrtopo/internal/mbr"
	"mbrtopo/internal/rtree"
	"mbrtopo/internal/topo"
	"mbrtopo/internal/workload"
)

// TestJoinServedShapeCuts pins what a serial join does on the trees of
// bench/'s `join` workload (two 10 000-object medium packed R*-trees,
// seeds 1995 and 1996, the paper's page size), for each relation that
// workload sends: the pairs, the accept tests (PairTests), the node
// pairs swept and the pages read are the figures of the engine before
// it filtered the contained side first; and of the 1 672 leaf pairs it
// sweeps, how many have the right side as their contained side (those
// of contains and covers, none of inside and covered_by) and how many
// have a contained side that keeps no entry, where the sweep ends
// before the other side is filtered.
func TestJoinServedShapeCuts(t *testing.T) {
	var trees [2]*rtree.Tree
	for i := range trees {
		idx, err := index.NewPacked(index.KindRStar, index.PaperPageSize,
			workload.NewDataset(workload.Medium, 10000, 0, int64(1995+i)).Items)
		if err != nil {
			t.Fatal(err)
		}
		trees[i] = idx.(*rtree.Tree)
	}
	type row struct {
		pairs                        int
		tests, sweeps, accesses      uint64
		leafPairs, rightFirst, empty int
	}
	pinned := map[topo.Relation]row{
		topo.Inside:    {2547, 148296, 1689, 566, 1672, 0, 625},
		topo.CoveredBy: {2547, 148296, 1689, 566, 1672, 0, 625},
		topo.Contains:  {2560, 144797, 1689, 566, 1672, 1672, 660},
		topo.Covers:    {2560, 144797, 1689, 566, 1672, 1672, 660},
	}
	for rel, want := range pinned {
		cands := mbr.CandidatesSet(topo.NewSet(rel))
		prune, accept := mbr.Compile(mbr.JoinPropagation(cands)), mbr.Compile(cands)
		var got row
		ts, err := rtree.JoinCtx(context.Background(), trees[0], trees[1], prune, accept,
			func(rtree.Hit, rtree.Hit) bool { got.pairs++; return true }, rtree.JoinOptions{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		got.tests, got.sweeps, got.accesses = ts.PairTests, ts.SweepPairs, ts.NodeAccesses
		if got.leafPairs, got.rightFirst, got.empty, err = rtree.JoinCuts(trees[0], trees[1], prune, accept); err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("%s: %+v, pinned %+v", rel, got, want)
		}
	}
}
