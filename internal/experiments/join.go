package experiments

import (
	"fmt"
	"strings"

	"mbrtopo/internal/index"
	"mbrtopo/internal/query"
	"mbrtopo/internal/topo"
	"mbrtopo/internal/workload"
)

// JoinResultExp measures topological spatial joins between two layers:
// the plane-sweep engine against the per-object nested-query baseline,
// in disk accesses per relation. (Wall time is bench/'s join workload.)
type JoinResultExp struct {
	Config Config
	Class  workload.SizeClass
	N      int
	Rows   []JoinRow
}

// JoinRow is one relation's join measurement.
type JoinRow struct {
	Relation topo.Relation
	// Pairs found at the filter level.
	Pairs int
	// JoinAccesses: page reads of the sweep engine (child pages read
	// at most once per node pair; the same for any worker count).
	JoinAccesses uint64
	// NestedAccesses: page reads of querying the right index once per
	// left object.
	NestedAccesses uint64
}

// RunJoin measures joins between two independently generated layers of
// the given class (cardinality capped to keep the nested baseline
// tractable).
func RunJoin(cfg Config, class workload.SizeClass) (*JoinResultExp, error) {
	n := cfg.NData
	if n > 20000 {
		n = 20000
	}
	left := workload.NewDataset(class, n, 1, cfg.Seed+400)
	right := workload.NewDataset(class, n, 1, cfg.Seed+401)
	lIdx, err := cfg.buildIndex(index.KindRStar, left)
	if err != nil {
		return nil, err
	}
	rIdx, err := cfg.buildIndex(index.KindRStar, right)
	if err != nil {
		return nil, err
	}
	out := &JoinResultExp{Config: cfg, Class: class, N: n}
	for _, rel := range []topo.Relation{topo.Meet, topo.Overlap, topo.Inside, topo.Covers, topo.Equal} {
		res, err := query.JoinTopological(lIdx, rIdx, topo.NewSet(rel), query.JoinOptions{Workers: 1})
		if err != nil {
			return nil, err
		}
		row := JoinRow{Relation: rel, Pairs: len(res.Pairs), JoinAccesses: res.Stats.NodeAccesses}

		// Nested baseline: one topological query per left object, costed
		// by summing each query's own traversal accounting.
		proc := &query.Processor{Idx: rIdx}
		var nested uint64
		for _, it := range left.Items {
			res, err := proc.QueryMBR(rel, it.Rect)
			if err != nil {
				return nil, err
			}
			nested += res.Stats.NodeAccesses
		}
		row.NestedAccesses = nested
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// Render prints the join comparison.
func (r *JoinResultExp) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Topological spatial join, two %s layers of %d objects (R*-trees)\n", r.Class, r.N)
	fmt.Fprintf(&b, "sweep = plane-sweep join with per-pair child dedup, nested = one query per left object\n\n")
	t := &table{header: []string{"relation", "pairs", "sweep acc", "nested acc", "ratio"}}
	for _, row := range r.Rows {
		t.addRow(row.Relation.String(),
			fmt.Sprintf("%d", row.Pairs),
			fmt.Sprintf("%d", row.JoinAccesses),
			fmt.Sprintf("%d", row.NestedAccesses),
			fmt.Sprintf("%.1f×", float64(row.NestedAccesses)/float64(row.JoinAccesses)))
	}
	b.WriteString(t.String())
	return b.String()
}
