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

// WindowResult quantifies the paper's Section 4 remark: topological
// relations *can* be retrieved with the traditional window
// (not_disjoint) query plus refinement, at roughly the cost of meet;
// the specialised 4-step retrieval improves both the disk accesses and
// the number of refinement candidates.
type WindowResult struct {
	Config Config
	Class  workload.SizeClass
	Rows   []WindowRow
}

// WindowRow compares one relation's retrieval against the window
// baseline.
type WindowRow struct {
	Relation topo.Relation
	// WindowAccesses/WindowHits: window-query filter.
	WindowAccesses, WindowHits float64
	// StepAccesses/StepHits: the paper's 4-step filter.
	StepAccesses, StepHits float64
}

// RunWindow measures the comparison for every refinement of
// not_disjoint (a disjoint query has no window analogue; the paper
// uses a serial scan there).
func RunWindow(cfg Config, class workload.SizeClass) (*WindowResult, error) {
	d := cfg.dataset(class)
	idx, err := cfg.buildIndex(index.KindRTree, d)
	if err != nil {
		return nil, err
	}
	proc := &query.Processor{Idx: idx}
	out := &WindowResult{Config: cfg, Class: class}
	for _, rel := range relationOrder {
		if rel == topo.Disjoint {
			continue
		}
		row := WindowRow{Relation: rel}
		for _, q := range d.Queries {
			// Window baseline: retrieve everything not disjoint from the
			// reference MBR; all candidates (leaf entries) go to refinement.
			pred := func(r geom.Rect) bool { return r.Intersects(q) }
			ts, err := idx.SearchHits(context.Background(), pred, pred, func(rtree.Hit) bool { return true })
			if err != nil {
				return nil, err
			}
			row.WindowAccesses += float64(ts.NodeAccesses)
			row.WindowHits += float64(ts.Emitted)
		}
		n := float64(len(d.Queries))
		row.WindowAccesses /= n
		row.WindowHits /= n
		if row.StepAccesses, row.StepHits, err = perSearch(proc, rel, d.Queries); err != nil {
			return nil, err
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// Render prints per-relation improvements over the window baseline.
func (r *WindowResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Window-query baseline vs 4-step retrieval (%s data, R-tree)\n\n", r.Class)
	t := &table{header: []string{
		"relation", "window acc", "4-step acc", "acc saved",
		"window cand", "4-step cand", "cand saved",
	}}
	for _, row := range r.Rows {
		saveA := 1 - row.StepAccesses/row.WindowAccesses
		saveH := 1 - row.StepHits/row.WindowHits
		t.addRow(
			row.Relation.String(),
			f1(row.WindowAccesses), f1(row.StepAccesses), pct(saveA),
			f1(row.WindowHits), f1(row.StepHits), pct(saveH),
		)
	}
	b.WriteString(t.String())
	return b.String()
}

func pct(v float64) string { return fmt.Sprintf("%.0f%%", v*100) }
