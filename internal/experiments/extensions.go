package experiments

import (
	"fmt"
	"strings"

	"mbrtopo/internal/index"
	"mbrtopo/internal/mbr"
	"mbrtopo/internal/query"
	"mbrtopo/internal/topo"
	"mbrtopo/internal/workload"
)

// PackingResult compares an STR bulk-loaded R-tree with the paper's
// one-by-one build: pages used and per-relation search cost.
type PackingResult struct {
	Config Config
	Class  workload.SizeClass
	// Pages used by each build.
	GrownPages, PackedPages int
	// Accesses[relation]: mean reads per search.
	GrownAccesses, PackedAccesses map[topo.Relation]float64
}

// RunPacking measures the packing ablation.
func RunPacking(cfg Config, class workload.SizeClass) (*PackingResult, error) {
	d := cfg.dataset(class)
	out := &PackingResult{
		Config: cfg, Class: class,
		GrownAccesses:  map[topo.Relation]float64{},
		PackedAccesses: map[topo.Relation]float64{},
	}

	grown, err := cfg.buildIndex(index.KindRTree, d)
	if err != nil {
		return nil, err
	}
	packed, err := cfg.buildPacked(d.Items)
	if err != nil {
		return nil, err
	}
	out.GrownPages = int(grown.IOStats().Allocs - grown.IOStats().Frees)
	out.PackedPages = int(packed.IOStats().Allocs - packed.IOStats().Frees)

	for name, idx := range map[string]index.Index{"grown": grown, "packed": packed} {
		proc := &query.Processor{Idx: idx}
		for _, rel := range relationOrder {
			mean, _, err := perSearch(proc, rel, d.Queries)
			if err != nil {
				return nil, err
			}
			if name == "grown" {
				out.GrownAccesses[rel] = mean
			} else {
				out.PackedAccesses[rel] = mean
			}
		}
	}
	return out, nil
}

// Render prints the packing comparison.
func (r *PackingResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "STR packing vs one-by-one build (R-tree, %s data)\n", r.Class)
	fmt.Fprintf(&b, "pages: grown %d, packed %d\n\n", r.GrownPages, r.PackedPages)
	t := &table{header: []string{"relation", "grown", "packed"}}
	for _, rel := range relationOrder {
		t.addRow(rel.String(), f1(r.GrownAccesses[rel]), f1(r.PackedAccesses[rel]))
	}
	b.WriteString(t.String())
	return b.String()
}

// SeedSweepResult verifies that the evaluation's shape is stable
// across dataset seeds (the paper reports one random file per class;
// the sweep shows the conclusions do not hinge on it).
type SeedSweepResult struct {
	Config Config
	Seeds  []int64
	// Accesses[relation] per seed (R-tree, medium data).
	Accesses map[topo.Relation][]float64
}

// runSeeds sweeps the configured seed and the four after it.
func runSeeds(cfg Config) (*SeedSweepResult, error) {
	return RunSeedSweep(cfg, []int64{cfg.Seed, cfg.Seed + 1, cfg.Seed + 2, cfg.Seed + 3, cfg.Seed + 4})
}

// RunSeedSweep runs the medium-class R-tree measurement per seed.
func RunSeedSweep(cfg Config, seeds []int64) (*SeedSweepResult, error) {
	out := &SeedSweepResult{Config: cfg, Seeds: seeds, Accesses: map[topo.Relation][]float64{}}
	for _, seed := range seeds {
		d := workload.NewDataset(workload.Medium, cfg.NData, cfg.NQueries, seed)
		idx, err := cfg.buildIndex(index.KindRTree, d)
		if err != nil {
			return nil, err
		}
		proc := &query.Processor{Idx: idx}
		for _, rel := range relationOrder {
			mean, _, err := perSearch(proc, rel, d.Queries)
			if err != nil {
				return nil, err
			}
			out.Accesses[rel] = append(out.Accesses[rel], mean)
		}
	}
	return out, nil
}

// ShapeStable reports whether the paper's cost-group ordering holds
// for every seed.
func (r *SeedSweepResult) ShapeStable() bool {
	for i := range r.Seeds {
		cheap := (r.Accesses[topo.Equal][i] + r.Accesses[topo.Covers][i] + r.Accesses[topo.Contains][i]) / 3
		mid := (r.Accesses[topo.Meet][i] + r.Accesses[topo.Overlap][i] +
			r.Accesses[topo.Inside][i] + r.Accesses[topo.CoveredBy][i]) / 4
		if !(cheap <= mid && mid <= r.Accesses[topo.Disjoint][i]) {
			return false
		}
	}
	return true
}

// Render prints per-relation min/mean/max across seeds.
func (r *SeedSweepResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Seed sweep (%d seeds, medium data, R-tree, accesses per search)\n\n", len(r.Seeds))
	t := &table{header: []string{"relation", "min", "mean", "max"}}
	for _, rel := range relationOrder {
		vals := r.Accesses[rel]
		lo, hi, sum := vals[0], vals[0], 0.0
		for _, v := range vals {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
			sum += v
		}
		t.addRow(rel.String(), f1(lo), f1(sum/float64(len(vals))), f1(hi))
	}
	b.WriteString(t.String())
	fmt.Fprintf(&b, "\ncost-group ordering stable across all seeds: %v\n", r.ShapeStable())
	return b.String()
}

// NonContiguousResult quantifies the paper's Section 7 remark: "the
// number of MBRs to be retrieved for some relations increases" when
// the contiguity assumption is dropped.
type NonContiguousResult struct {
	Config Config
	// Rows per relation: configuration counts and measured hits.
	Rows []NonContiguousRow
}

// NonContiguousRow compares the contiguous and relaxed filter rows.
type NonContiguousRow struct {
	Relation                          topo.Relation
	ContiguousConfigs, RelaxedConfigs int
	ContiguousHits, RelaxedHits       float64
}

// RunNonContiguous measures the relaxed filter's extra hits on the
// medium data file.
func RunNonContiguous(cfg Config) (*NonContiguousResult, error) {
	d := workload.NewDataset(workload.Medium, cfg.NData, cfg.NQueries, cfg.Seed)
	idx, err := cfg.buildIndex(index.KindRTree, d)
	if err != nil {
		return nil, err
	}
	strict := &query.Processor{Idx: idx}
	relaxed := &query.Processor{Idx: idx, NonContiguous: true}
	out := &NonContiguousResult{Config: cfg}
	for _, rel := range relationOrder {
		row := NonContiguousRow{
			Relation:          rel,
			ContiguousConfigs: mbr.Candidates(rel).Len(),
			RelaxedConfigs:    mbr.CandidatesNonContiguous(rel).Len(),
		}
		if _, row.ContiguousHits, err = perSearch(strict, rel, d.Queries); err != nil {
			return nil, err
		}
		if _, row.RelaxedHits, err = perSearch(relaxed, rel, d.Queries); err != nil {
			return nil, err
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// Render prints the comparison.
func (r *NonContiguousResult) Render() string {
	var b strings.Builder
	b.WriteString("Section 7 — non-contiguous objects: filter relaxation (medium data)\n\n")
	t := &table{header: []string{"relation", "configs strict", "configs relaxed", "hits strict", "hits relaxed"}}
	for _, row := range r.Rows {
		t.addRow(row.Relation.String(),
			fmt.Sprintf("%d", row.ContiguousConfigs),
			fmt.Sprintf("%d", row.RelaxedConfigs),
			f1(row.ContiguousHits), f1(row.RelaxedHits))
	}
	b.WriteString(t.String())
	b.WriteString("\nonly disjoint and meet relax (the crossing/forced-overlap arguments need contiguity).\n")
	return b.String()
}
