package experiments

import (
	"fmt"
	"strings"

	"mbrtopo/internal/index"
	"mbrtopo/internal/query"
	"mbrtopo/internal/topo"
	"mbrtopo/internal/workload"
)

// Table3Result reproduces the paper's Table 3: retrieved MBRs ("hits")
// per search for each topological relation and data file. Hits are a
// property of the data, not the access method (every correct filter
// retrieves exactly the Table 1 candidates), so one tree suffices.
type Table3Result struct {
	Config Config
	// Hits[class][relation] is the mean number of retrieved MBRs over
	// the search file.
	Hits map[workload.SizeClass]map[topo.Relation]float64
}

// RunTable3 regenerates Table 3.
func RunTable3(cfg Config) (*Table3Result, error) {
	out := &Table3Result{
		Config: cfg,
		Hits:   map[workload.SizeClass]map[topo.Relation]float64{},
	}
	for _, class := range cfg.Classes {
		d := cfg.dataset(class)
		// Hits are tree-independent (the query tests assert this); use
		// the plain R-tree.
		idx, err := cfg.buildIndex(index.KindRTree, d)
		if err != nil {
			return nil, err
		}
		proc := &query.Processor{Idx: idx}
		byRel := map[topo.Relation]float64{}
		for _, rel := range topo.All() {
			if _, byRel[rel], err = perSearch(proc, rel, d.Queries); err != nil {
				return nil, err
			}
		}
		out.Hits[class] = byRel
	}
	return out, nil
}

// Render prints the table in the paper's layout.
func (r *Table3Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 3 — retrieved MBRs (hits) per search; N=%d, %d queries, seed %d\n\n",
		r.Config.NData, r.Config.NQueries, r.Config.Seed)
	t := &table{header: []string{"relation", "small MBRs", "medium MBRs", "large MBRs"}}
	for _, rel := range relationOrder {
		row := []string{rel.String()}
		for _, class := range workload.AllSizeClasses() {
			if m, ok := r.Hits[class]; ok {
				row = append(row, f1(m[rel]))
			} else {
				row = append(row, "-")
			}
		}
		t.addRow(row...)
	}
	b.WriteString(t.String())
	return b.String()
}
