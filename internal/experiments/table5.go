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

// Table5Result reproduces the paper's Table 5 and quantifies its cost:
// the per-relation growth of the output-MBR configuration sets under
// 2-degree conceptual-neighbourhood expansion (non-crisp MBRs), plus
// the measured retrieval overhead of the tolerant filter on the
// medium data file.
type Table5Result struct {
	Config Config
	Rows   []Table5Row
}

// Table5Row is one relation's crisp-vs-tolerant comparison.
type Table5Row struct {
	Relation topo.Relation
	// CrispConfigs and TolerantConfigs count the Table 1 and Table 5
	// configuration sets.
	CrispConfigs, TolerantConfigs int
	// CrispHits/TolerantHits are mean retrieved MBRs per search.
	CrispHits, TolerantHits float64
	// CrispAccesses/TolerantAccesses are mean page reads per search.
	CrispAccesses, TolerantAccesses float64
}

// RunTable5 regenerates the comparison on the medium data file.
func RunTable5(cfg Config) (*Table5Result, error) {
	d := cfg.dataset(workload.Medium)
	idx, err := cfg.buildIndex(index.KindRTree, d)
	if err != nil {
		return nil, err
	}
	crisp := &query.Processor{Idx: idx}
	tolerant := &query.Processor{Idx: idx, NonCrisp: true}
	out := &Table5Result{Config: cfg}
	for _, rel := range relationOrder {
		row := Table5Row{
			Relation:        rel,
			CrispConfigs:    mbr.Candidates(rel).Len(),
			TolerantConfigs: mbr.CandidatesNonCrisp(rel).Len(),
		}
		if row.CrispAccesses, row.CrispHits, err = perSearch(crisp, rel, d.Queries); err != nil {
			return nil, err
		}
		if row.TolerantAccesses, row.TolerantHits, err = perSearch(tolerant, rel, d.Queries); err != nil {
			return nil, err
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// Render prints the configuration growth and the measured overhead.
func (r *Table5Result) Render() string {
	var b strings.Builder
	b.WriteString("Table 5 — retrieval using 2-degree conceptual neighbourhoods (non-crisp MBRs)\n")
	fmt.Fprintf(&b, "medium data file, N=%d, %d queries\n\n", r.Config.NData, r.Config.NQueries)
	t := &table{header: []string{
		"relation", "configs crisp", "configs 2-nbhd",
		"hits crisp", "hits 2-nbhd", "accesses crisp", "accesses 2-nbhd",
	}}
	for _, row := range r.Rows {
		t.addRow(
			row.Relation.String(),
			fmt.Sprintf("%d", row.CrispConfigs),
			fmt.Sprintf("%d", row.TolerantConfigs),
			f1(row.CrispHits), f1(row.TolerantHits),
			f1(row.CrispAccesses), f1(row.TolerantAccesses),
		)
	}
	b.WriteString(t.String())
	b.WriteString("\nnotes: equal grows most (1 → 81 configurations); overlap is unchanged, as the paper states.\n")
	return b.String()
}
