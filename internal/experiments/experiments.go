// Package experiments regenerates every table and figure of the
// paper's evaluation (and the ablations listed in DESIGN.md). Each
// experiment returns a structured result with a Render method that
// prints the same rows/series the paper reports.
package experiments

import (
	"fmt"
	"strings"

	"mbrtopo/internal/geom"
	"mbrtopo/internal/index"
	"mbrtopo/internal/query"
	"mbrtopo/internal/rtree"
	"mbrtopo/internal/topo"
	"mbrtopo/internal/workload"
)

// Config holds the experimental parameters of the paper's Section 4.
type Config struct {
	// NData is the data file cardinality (paper: 10,000).
	NData int
	// NQueries is the search file cardinality (paper: 100).
	NQueries int
	// Seed drives all random generation.
	Seed int64
	// PageSize gives the node capacity (paper: 50 entries per page).
	PageSize int
	// Classes are the size classes to run (paper: small/medium/large).
	Classes []workload.SizeClass
}

// Default returns the paper's configuration.
func Default() Config {
	return Config{
		NData:    10000,
		NQueries: 100,
		Seed:     1995,
		PageSize: index.PaperPageSize,
		Classes:  workload.AllSizeClasses(),
	}
}

// Quick returns a scaled-down configuration for tests and smoke runs.
func Quick() Config {
	return Config{
		NData:    1500,
		NQueries: 25,
		Seed:     1995,
		PageSize: 512,
		Classes:  workload.AllSizeClasses(),
	}
}

// PageCapacity returns the node capacity implied by the page size.
func (c Config) PageCapacity() int {
	return rtree.CapacityForPageSize(c.PageSize)
}

// SerialBaseline returns the disk accesses of a serial scan of the
// data file (the paper's 200-page baseline).
func (c Config) SerialBaseline() int {
	return index.SerialPages(c.NData, c.PageCapacity())
}

// dataset builds the (cached-by-caller) dataset for a class.
func (c Config) dataset(class workload.SizeClass) *workload.Dataset {
	return workload.NewDataset(class, c.NData, c.NQueries, c.Seed+int64(class))
}

// buildIndex loads a dataset one object at a time into a fresh
// in-memory index of the given kind, charging the paper's cost model:
// every node visit is a read of its pages.
func (c Config) buildIndex(kind index.Kind, d *workload.Dataset) (index.Index, error) {
	idx, err := index.NewWithPageSize(kind, c.PageSize)
	if err != nil {
		return nil, err
	}
	if err := index.Load(idx, d.Items); err != nil {
		return nil, fmt.Errorf("building %v on %v data: %w", kind, d.Class, err)
	}
	return idx, nil
}

// buildPacked STR-packs items into a fresh R-tree.
func (c Config) buildPacked(items []index.Item) (index.Index, error) {
	idx, err := index.NewWithPageSize(index.KindRTree, c.PageSize)
	if err != nil {
		return nil, err
	}
	if err := index.LoadBulk(idx, items); err != nil {
		return nil, err
	}
	return idx, nil
}

// perSearch runs one relation's filter step over a search file and
// returns the paper's two metrics as means per search: disk accesses
// and retrieved MBRs (hits).
func perSearch(proc *query.Processor, rel topo.Relation, queries []geom.Rect) (accesses, hits float64, err error) {
	var acc uint64
	var cand int
	for _, q := range queries {
		res, err := proc.QueryMBR(rel, q)
		if err != nil {
			return 0, 0, err
		}
		acc += res.Stats.NodeAccesses
		cand += res.Stats.Candidates
	}
	n := float64(len(queries))
	return float64(acc) / n, float64(cand) / n, nil
}

// relationOrder is the paper's row order in Table 3 and Figure 11.
var relationOrder = []topo.Relation{
	topo.Disjoint, topo.Meet, topo.Overlap, topo.CoveredBy,
	topo.Inside, topo.Equal, topo.Covers, topo.Contains,
}

// table is a minimal text-table renderer.
type table struct {
	header []string
	rows   [][]string
}

func (t *table) addRow(cells ...string) { t.rows = append(t.rows, cells) }

func (t *table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}

func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
