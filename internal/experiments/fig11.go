package experiments

import (
	"fmt"
	"strings"

	"mbrtopo/internal/index"
	"mbrtopo/internal/query"
	"mbrtopo/internal/topo"
	"mbrtopo/internal/workload"
)

// Fig11Result reproduces the paper's Figure 11: disk accesses per
// search for the three R-tree variants, eight relations and three data
// sizes, against the serial-scan baseline.
type Fig11Result struct {
	Config Config
	// Accesses[class][kind][relation] is the mean number of page reads
	// per search.
	Accesses map[workload.SizeClass]map[index.Kind]map[topo.Relation]float64
	// Heights[class][kind] records the tree height (the R+-tree gains a
	// level on large data, as the paper observed).
	Heights map[workload.SizeClass]map[index.Kind]int
	// Serial is the serial-scan baseline in pages.
	Serial int
}

// RunFig11 regenerates Figure 11.
func RunFig11(cfg Config) (*Fig11Result, error) {
	out := &Fig11Result{
		Config:   cfg,
		Accesses: map[workload.SizeClass]map[index.Kind]map[topo.Relation]float64{},
		Heights:  map[workload.SizeClass]map[index.Kind]int{},
		Serial:   cfg.SerialBaseline(),
	}
	for _, class := range cfg.Classes {
		d := cfg.dataset(class)
		out.Accesses[class] = map[index.Kind]map[topo.Relation]float64{}
		out.Heights[class] = map[index.Kind]int{}
		for _, kind := range index.AllKinds() {
			idx, err := cfg.buildIndex(kind, d)
			if err != nil {
				return nil, err
			}
			out.Heights[class][kind] = idx.Height()
			proc := &query.Processor{Idx: idx}
			byRel := map[topo.Relation]float64{}
			for _, rel := range topo.All() {
				if byRel[rel], _, err = perSearch(proc, rel, d.Queries); err != nil {
					return nil, err
				}
			}
			out.Accesses[class][kind] = byRel
		}
	}
	return out, nil
}

// Render prints one panel per data size, as in the paper's figure.
func (r *Fig11Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 11 — disk accesses per search; serial baseline = %d pages\n", r.Serial)
	for _, class := range workload.AllSizeClasses() {
		byKind, ok := r.Accesses[class]
		if !ok {
			continue
		}
		fmt.Fprintf(&b, "\n%s data size (tree heights:", class)
		for _, kind := range index.AllKinds() {
			fmt.Fprintf(&b, " %s=%d", kind, r.Heights[class][kind])
		}
		b.WriteString(")\n")
		t := &table{header: []string{"relation", "R-tree", "R+-tree", "R*-tree", "serial"}}
		for _, rel := range relationOrder {
			t.addRow(
				rel.String(),
				f1(byKind[index.KindRTree][rel]),
				f1(byKind[index.KindRPlus][rel]),
				f1(byKind[index.KindRStar][rel]),
				fmt.Sprintf("%d", r.Serial),
			)
		}
		b.WriteString(t.String())
	}
	return b.String()
}
