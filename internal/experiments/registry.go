package experiments

import (
	"errors"
	"fmt"
	"io"
	"strings"

	"mbrtopo/internal/workload"
)

// entry is one experiment of the evaluation: an id, the claim its
// output is there to check, and how to produce that output. The output
// is counts only — hits, disk accesses, configuration counts — so the
// same Config always prints the same bytes, and what Run(w, "all", …)
// writes is what testdata/quick.golden and results_full.txt pin.
type entry struct {
	// id is what `topobench -exp` takes and what the section header shows.
	id string
	// claim is the one-line statement (the paper's, or ours for the
	// extensions) that the section's numbers support.
	claim string
	// aliasOf, when set, names the entry whose section this id also
	// prints (same run); "all" leaves aliases out.
	aliasOf string

	run runFunc
}

// runFunc produces one section's text. class is the size class of the
// experiments that run on one; the others ignore it.
type runFunc func(cfg Config, class workload.SizeClass) (string, error)

// renderer is what every experiment's structured result implements.
type renderer interface{ Render() string }

// static adapts a conceptual enumeration that takes no parameters.
func static(f func() string) runFunc {
	return func(Config, workload.SizeClass) (string, error) { return f(), nil }
}

// derived adapts a parameter-free derivation with a structured result.
func derived[R renderer](f func() R) runFunc {
	return func(Config, workload.SizeClass) (string, error) { return f().Render(), nil }
}

// onConfig adapts an experiment that fixes its own size classes.
func onConfig[R renderer](f func(Config) (R, error)) runFunc {
	return func(cfg Config, _ workload.SizeClass) (string, error) {
		r, err := f(cfg)
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	}
}

// onClass adapts an experiment that runs on one chosen size class.
func onClass[R renderer](f func(Config, workload.SizeClass) (R, error)) runFunc {
	return func(cfg Config, class workload.SizeClass) (string, error) {
		r, err := f(cfg, class)
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	}
}

// registry is the evaluation, in the order "all" prints it.
var registry = []entry{
	{id: "fig1", run: static(RenderFig1),
		claim: "eight pairwise-disjoint, jointly complete relations of the 9-intersection model (Fig. 1)"},
	{id: "fig2", run: static(RenderFig2),
		claim: "13 pairwise-disjoint, jointly complete relations between 1D intervals (Fig. 2)"},
	{id: "fig3", run: static(RenderFig3),
		claim: "169 = 13×13 projection configurations between two MBRs (Fig. 3)"},
	{id: "fig4", run: static(RenderFig4),
		claim: "every configuration fixes one MBR-level relation: 48 disjoint, 40 meet, 50 overlap, 14+14 covers/covered_by, 1 each contains/inside/equal (Fig. 4)"},
	{id: "table1", run: static(RenderTable1),
		claim: "configurations to retrieve per relation: 138/107/81/16/1/1/16/1, refinement skippable only for some disjoint and overlap ones (Table 1, Figs. 5 and 9)"},
	{id: "fig9", aliasOf: "table1", run: static(RenderTable1),
		claim: "the refinement-free subsets are printed with Table 1 (Fig. 9)"},
	{id: "table2", run: static(RenderTable2),
		claim: "node relations to follow per leaf relation, the same test at every tree level (Table 2, Fig. 10)"},
	{id: "fig14", run: static(RenderFig14),
		claim: "conceptual neighbourhoods of the interval relations; N1(equal)={4,6,8,10}, N2(equal)={3,5,9,11} (Fig. 14)"},
	{id: "table3", run: onConfig(RunTable3),
		claim: "hits per search: disjoint ≈ N, meet ≈ overlap and growing with MBR size, the containment relations near zero (Table 3)"},
	{id: "fig11", run: onConfig(RunFig11),
		claim: "disk accesses per search: disjoint worse than the serial scan, three cost groups, R+ best until it gains a level on large data (Fig. 11)"},
	{id: "fig12", run: derived(RunFig12),
		claim: "subset lattice of the Table 1 rows; in ≡ covered_by and meet∨contains∨equal∨inside ≡ meet in retrieval cost (Fig. 12)"},
	{id: "table4", run: derived(RunTable4),
		claim: "conjunctions that are empty for a given relation between the two references (Table 4)"},
	{id: "table5", run: onConfig(RunTable5),
		claim: "2-degree neighbourhood retrieval for non-crisp MBRs: equal grows most (1 → 81 configurations), overlap is unchanged (Table 5)"},
	{id: "window", run: onClass(RunWindow),
		claim: "the 4-step retrieval never reads more than a window query and hands refinement a small subset of its candidates (Section 4)"},
	{id: "complex", run: onConfig(RunComplex),
		claim: "a disjunction costs what its dominating member costs; Table 4 answers empty conjunctions with zero disk accesses (Section 5)"},
	{id: "ablations", run: onClass(RunAblations),
		claim: "design choices beyond the paper: split policy, Table 2 against naive descent, LRU buffering, clustered data — the cost groups survive each"},
	{id: "packing", run: onClass(RunPacking),
		claim: "an STR-packed R-tree uses fewer pages and fewer reads per search than the one-by-one build"},
	{id: "seeds", run: onConfig(runSeeds),
		claim: "the cost-group ordering holds for every dataset seed"},
	{id: "noncontiguous", run: onConfig(RunNonContiguous),
		claim: "without contiguity only disjoint (138 → 169) and meet (107 → 121) retrieve more configurations (Section 7)"},
	{id: "secondfilter", run: onConfig(RunSecondFilter),
		claim: "a convex-hull second filter saves exact geometry tests and changes no result (Brinkhoff et al. 1994)"},
	{id: "join", run: onClass(RunJoin),
		claim: "a synchronised two-tree join reads a small fraction of the pages that one query per left object reads"},
	{id: "buffer", run: onClass(RunBuffer),
		claim: "logical accesses (the paper's metric) do not depend on the pool; physical reads fall as LRU frames grow"},
}

// IDs lists what Run accepts: "all", then every registered id.
func IDs() []string {
	ids := []string{"all"}
	for _, e := range registry {
		ids = append(ids, e.id)
	}
	return ids
}

// lookup resolves an -exp argument: "all" is every entry that is not an
// alias, in order; anything else is the one entry with that id. An
// unknown id is an error that lists the known ones with their claims.
func lookup(exp string) ([]entry, error) {
	var out []entry
	for _, e := range registry {
		if exp == e.id || (exp == "all" && e.aliasOf == "") {
			out = append(out, e)
		}
	}
	if len(out) > 0 {
		return out, nil
	}
	var b strings.Builder
	fmt.Fprintf(&b, "unknown experiment %q; known ids:\n  %-13s  every entry below but the aliases, in this order", exp, "all")
	for _, e := range registry {
		fmt.Fprintf(&b, "\n  %-13s  %s", e.id, e.claim)
	}
	return nil, errors.New(b.String())
}

// Run writes the selected experiments' sections to w. This is the whole
// output format: a header naming the id, the section text, a blank line.
func Run(w io.Writer, exp string, cfg Config, class workload.SizeClass) error {
	entries, err := lookup(exp)
	if err != nil {
		return err
	}
	for _, e := range entries {
		text, err := e.run(cfg, class)
		if err != nil {
			return fmt.Errorf("%s: %w", e.id, err)
		}
		if _, err := fmt.Fprintf(w, "=== %s ===\n%s\n", e.id, text); err != nil {
			return err
		}
	}
	return nil
}
