package experiments

import (
	"fmt"
	"strconv"

	"mbrtopo/internal/index"
	"mbrtopo/internal/pagefile"
	"mbrtopo/internal/query"
	"mbrtopo/internal/topo"
	"mbrtopo/internal/workload"
)

// The buffer experiment goes beyond the paper's cost model: the paper
// reports raw disk accesses per search (every node visit is a read),
// the setting of its 1995 testbed. A real server keeps an LRU buffer
// pool between the tree and the disk, so the interesting numbers are
// the logical accesses (the paper's metric, unchanged) next to the
// physical reads that survive caching at a given pool size.

// BufferRow is one (access method, frame count) measurement.
type BufferRow struct {
	Kind   index.Kind
	Frames int
	// LogicalPerQuery is the paper's disk-access count per search.
	LogicalPerQuery float64
	// PhysicalPerQuery is the reads that missed the pool.
	PhysicalPerQuery float64
	// HitRatio is pool hits / (hits + misses) over the query batch.
	HitRatio float64
	// Pages is the total pages of the index (the working set).
	Pages int
}

// BufferResult is the buffer-pool experiment output.
type BufferResult struct {
	Config Config
	Class  workload.SizeClass
	Rows   []BufferRow
}

// frameSweep is the pool sizes measured, in frames.
var frameSweep = []int{8, 32, 128, 512}

// RunBuffer measures window queries (not_disjoint, the service's
// common case) through a BufferPool of each swept size, per access
// method. Logical accesses come from per-traversal stats and equal
// the unbuffered counts; physical reads and the hit ratio come from
// the pool.
func RunBuffer(cfg Config, class workload.SizeClass) (*BufferResult, error) {
	d := cfg.dataset(class)
	out := &BufferResult{Config: cfg, Class: class}
	for _, kind := range index.AllKinds() {
		for _, frames := range frameSweep {
			pool := pagefile.NewBufferPool(pagefile.NewMemFile(cfg.PageSize), frames)
			idx, err := cfg.buildOn(kind, d, pool)
			if err != nil {
				return nil, err
			}
			// Measure query-time behaviour only: drop the build's
			// accounting, keep the pool's (warm) contents.
			pool.ResetStats()
			proc := &query.Processor{Idx: idx}
			var logical uint64
			for _, q := range d.Queries {
				res, err := proc.QuerySetMBR(topo.NotDisjoint, q)
				if err != nil {
					return nil, err
				}
				logical += res.Stats.NodeAccesses
			}
			hits, misses := pool.HitMiss()
			phys := pool.Stats().Reads
			n := float64(len(d.Queries))
			row := BufferRow{
				Kind:             kind,
				Frames:           frames,
				LogicalPerQuery:  float64(logical) / n,
				PhysicalPerQuery: float64(phys) / n,
				Pages:            pool.NumPages(),
			}
			if total := hits + misses; total > 0 {
				row.HitRatio = float64(hits) / float64(total)
			}
			out.Rows = append(out.Rows, row)
		}
	}
	return out, nil
}

// Render prints the comparison table.
func (r *BufferResult) Render() string {
	t := &table{header: []string{
		"tree", "frames", "logical/query", "physical/query", "hit ratio", "index pages",
	}}
	for _, row := range r.Rows {
		t.addRow(
			row.Kind.String(),
			strconv.Itoa(row.Frames),
			f1(row.LogicalPerQuery),
			f1(row.PhysicalPerQuery),
			fmt.Sprintf("%.1f%%", 100*row.HitRatio),
			strconv.Itoa(row.Pages),
		)
	}
	return fmt.Sprintf("buffer-pool sweep, %s class, window (not_disjoint) queries\n(logical = the paper's raw disk accesses; physical = misses after LRU caching)\n%s",
		r.Class, t)
}
