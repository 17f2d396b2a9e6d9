package experiments

import (
	"context"
	"fmt"
	"strings"

	"mbrtopo/internal/geom"
	"mbrtopo/internal/index"
	"mbrtopo/internal/query"
	"mbrtopo/internal/rtree"
	"mbrtopo/internal/topo"
	"mbrtopo/internal/workload"
)

// AblationResult measures the design choices DESIGN.md calls out:
//
//   - split policy: Guttman quadratic vs linear vs the R* split,
//     isolated from the other R* machinery;
//   - Table 2 propagation vs naive intersection descent (what pruning
//     the derived node relations actually buy, per relation);
//   - uniform vs clustered data (sensitivity to the paper's uniformity
//     assumption).
type AblationResult struct {
	Config Config
	Class  workload.SizeClass

	// SplitAccesses[split][relation]: mean reads per search for plain
	// R-trees differing only in the split algorithm.
	SplitAccesses map[rtree.SplitAlgorithm]map[topo.Relation]float64

	// PropagationAccesses / NaiveAccesses: the 4-step node predicate vs
	// descending into every child intersecting the reference MBR.
	PropagationAccesses map[topo.Relation]float64
	NaiveAccesses       map[topo.Relation]float64

	// ClusteredAccesses / UniformAccesses: mean reads per search on
	// clustered vs uniform data, R-tree, per relation.
	ClusteredAccesses map[topo.Relation]float64
	UniformAccesses   map[topo.Relation]float64
}

// RunAblations measures all three ablations on one size class.
func RunAblations(cfg Config, class workload.SizeClass) (*AblationResult, error) {
	d := cfg.dataset(class)
	out := &AblationResult{
		Config:              cfg,
		Class:               class,
		SplitAccesses:       map[rtree.SplitAlgorithm]map[topo.Relation]float64{},
		PropagationAccesses: map[topo.Relation]float64{},
		NaiveAccesses:       map[topo.Relation]float64{},
		ClusteredAccesses:   map[topo.Relation]float64{},
		UniformAccesses:     map[topo.Relation]float64{},
	}

	// --- Split policies on otherwise identical R-trees.
	for _, split := range []rtree.SplitAlgorithm{rtree.SplitQuadratic, rtree.SplitLinear, rtree.SplitRStar} {
		tr, err := rtree.NewArena(cfg.PageSize, rtree.Options{Split: split}, "R-tree/"+split.String())
		if err != nil {
			return nil, err
		}
		for _, it := range d.Items {
			if err := tr.Insert(it.Rect, it.OID); err != nil {
				return nil, err
			}
		}
		proc := &query.Processor{Idx: tr}
		byRel := map[topo.Relation]float64{}
		for _, rel := range relationOrder {
			if byRel[rel], _, err = perSearch(proc, rel, d.Queries); err != nil {
				return nil, err
			}
		}
		out.SplitAccesses[split] = byRel
	}

	// --- Table 2 propagation vs naive intersection descent.
	idx, err := cfg.buildIndex(index.KindRTree, d)
	if err != nil {
		return nil, err
	}
	proc := &query.Processor{Idx: idx}
	for _, rel := range relationOrder {
		if out.PropagationAccesses[rel], _, err = perSearch(proc, rel, d.Queries); err != nil {
			return nil, err
		}
		var naive uint64
		for _, q := range d.Queries {
			// Naive: any child whose rect shares a point with the
			// reference MBR is visited (the classic window descent);
			// disjoint has no window analogue, so visit everything.
			nodePred := func(r geom.Rect) bool { return rel == topo.Disjoint || r.Intersects(q) }
			leafPred := nodePred
			ts, err := idx.SearchHits(context.Background(), nodePred, leafPred, func(rtree.Hit) bool { return true })
			if err != nil {
				return nil, err
			}
			naive += ts.NodeAccesses
		}
		out.NaiveAccesses[rel] = float64(naive) / float64(len(d.Queries))
	}

	// --- Clustered vs uniform data.
	{
		cd := workload.ClusteredDataset(class, cfg.NData, cfg.NQueries, 8, cfg.Seed+7)
		cidx, err := cfg.buildIndex(index.KindRTree, cd)
		if err != nil {
			return nil, err
		}
		cproc := &query.Processor{Idx: cidx}
		for _, rel := range relationOrder {
			if out.ClusteredAccesses[rel], _, err = perSearch(cproc, rel, cd.Queries); err != nil {
				return nil, err
			}
			if out.UniformAccesses[rel], _, err = perSearch(proc, rel, d.Queries); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// Render prints the three ablations.
func (r *AblationResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablations (%s data)\n", r.Class)

	b.WriteString("\n[1] split policy (plain R-tree, accesses per search)\n")
	t := &table{header: []string{"relation", "quadratic", "linear", "rstar-split"}}
	for _, rel := range relationOrder {
		t.addRow(rel.String(),
			f1(r.SplitAccesses[rtree.SplitQuadratic][rel]),
			f1(r.SplitAccesses[rtree.SplitLinear][rel]),
			f1(r.SplitAccesses[rtree.SplitRStar][rel]))
	}
	b.WriteString(t.String())

	b.WriteString("\n[2] Table 2 propagation vs naive intersection descent\n")
	t = &table{header: []string{"relation", "table-2", "naive", "saved"}}
	for _, rel := range relationOrder {
		saved := 1 - r.PropagationAccesses[rel]/r.NaiveAccesses[rel]
		t.addRow(rel.String(), f1(r.PropagationAccesses[rel]), f1(r.NaiveAccesses[rel]), pct(saved))
	}
	b.WriteString(t.String())

	b.WriteString("\n[3] clustered vs uniform data (R-tree, accesses per search)\n")
	t = &table{header: []string{"relation", "uniform", "clustered"}}
	for _, rel := range relationOrder {
		t.addRow(rel.String(), f1(r.UniformAccesses[rel]), f1(r.ClusteredAccesses[rel]))
	}
	b.WriteString(t.String())
	return b.String()
}
