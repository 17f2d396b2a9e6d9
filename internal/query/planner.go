package query

import (
	"fmt"
	"strings"

	"mbrtopo/internal/geom"
	"mbrtopo/internal/index"
	"mbrtopo/internal/rtree"
	"mbrtopo/internal/topo"
)

// Planner estimates per-relation candidate counts from the index's
// node-MBR summary (rtree.TreeStats) and uses them to order the terms
// of a conjunction cheapest-first. The paper's static rule — CostGroup
// first, smaller reference MBR as tie-breaker — ignores the data
// distribution: a small reference sitting inside a dense cluster can
// be far more expensive to retrieve than a large one over empty space.
// The histograms see that; the static rule cannot.
type Planner struct {
	St *rtree.TreeStats
}

// PlannerFor builds a planner over the index's statistics, or nil
// when the backend has none (or an empty summary): callers fall back
// to the static heuristics then.
func PlannerFor(idx index.Index) *Planner {
	st, err := index.StatsOf(idx)
	if err != nil || st == nil || st.Samples() == 0 {
		return nil
	}
	return &Planner{St: st}
}

// Estimate predicts how many stored MBRs the filter step retrieves
// for one relation against a reference MBR. The histogram estimators
// model intersection, containment, and being-contained; the relation
// maps onto whichever of those bounds its candidate set:
//
//   - disjoint retrieves (nearly) everything outside the reference,
//   - inside/covered_by retrieve entries within the reference that
//     are small enough to fit,
//   - contains/covers retrieve entries whose extent reaches over the
//     reference,
//   - equal is bounded by both containment directions,
//   - meet and overlap intersect the reference; meet only through its
//     boundary, so it is discounted to a thin fraction.
func (p *Planner) Estimate(rel topo.Relation, ref geom.Rect) float64 {
	st := p.St
	n := float64(st.Samples())
	inter := st.EstimateIntersecting(ref)
	var est float64
	switch rel {
	case topo.Disjoint:
		est = n - inter
	case topo.Inside, topo.CoveredBy:
		est = st.EstimateContainedBy(ref)
	case topo.Contains, topo.Covers:
		est = st.EstimateContaining(ref)
	case topo.Equal:
		est = min(st.EstimateContainedBy(ref), st.EstimateContaining(ref))
	case topo.Meet:
		// Boundary contact only: a thin slice of the intersecting
		// population, floored at one so meet never looks free.
		est = inter*0.05 + 1
	default: // Overlap and anything unmapped: full intersection.
		est = inter
	}
	return max(0, min(est, n))
}

// EstimateSet sums the per-relation estimates of a disjunction,
// clamped to the population size.
func (p *Planner) EstimateSet(rels topo.Set, ref geom.Rect) float64 {
	total := 0.0
	for _, r := range topo.All() {
		if rels.Has(r) {
			total += p.Estimate(r, ref)
		}
	}
	return min(total, float64(p.St.Samples()))
}

// conjunctionPlan is the planner's (or the static rule's) decision for
// a two-term conjunction: which side to retrieve through the index,
// whether that overrode the static order, and the explain line.
type conjunctionPlan struct {
	retrieveSecond bool
	reordered      bool
	explain        string
}

// planConjunction picks the retrieval side of r1(p, q1) ∧ r2(p, q2).
// With statistics, the side with the smaller estimated candidate count
// wins (ties fall back to the static rule); without, the static
// CostGroup rule decides alone.
func planConjunction(pl *Planner, r1 topo.Set, ref1 geom.Rect, r2 topo.Set, ref2 geom.Rect) conjunctionPlan {
	staticSecond := swapConjunctionSets(r1, ref1, r2, ref2)
	if pl == nil {
		return conjunctionPlan{
			retrieveSecond: staticSecond,
			explain: fmt.Sprintf("plan=conjunction side=%s order=static",
				sideName(staticSecond)),
		}
	}
	e1 := pl.EstimateSet(r1, ref1)
	e2 := pl.EstimateSet(r2, ref2)
	second := staticSecond
	if e1 != e2 {
		second = e2 < e1
	}
	return conjunctionPlan{
		retrieveSecond: second,
		reordered:      second != staticSecond,
		explain: fmt.Sprintf("plan=conjunction side=%s est=[%.0f %.0f] static=%s order=%s",
			sideName(second), e1, e2, sideName(staticSecond), orderName(second != staticSecond)),
	}
}

func sideName(second bool) string {
	if second {
		return "second"
	}
	return "first"
}

func orderName(reordered bool) string {
	if reordered {
		return "planned"
	}
	return "static"
}

// CostGroup returns the paper's retrieval cost group of a relation:
// 0 for {equal, covers, contains} (cheapest), 1 for {meet, overlap,
// inside, covered_by}, 2 for {disjoint} (serial-scan territory).
func CostGroup(r topo.Relation) int {
	switch r {
	case topo.Equal, topo.Covers, topo.Contains:
		return 0
	case topo.Disjoint:
		return 2
	default:
		return 1
	}
}

// swapConjunctionSets is the paper's static rule, reporting whether the
// second term should be the one retrieved through the index: the lower
// cost group first; within a group the smaller reference MBR ("if the
// sizes of the reference MBRs are considerably different, then the
// smallest reference MBR must be selected" — retrieval cost grows with
// the data size). Terms are relation sets because the wire path accepts
// disjunctions on both.
func swapConjunctionSets(r1 topo.Set, ref1 geom.Rect, r2 topo.Set, ref2 geom.Rect) bool {
	g1, g2 := costGroupSet(r1), costGroupSet(r2)
	if g1 != g2 {
		return g2 < g1
	}
	return ref2.Area() < ref1.Area()
}

// costGroupSet is the cost group of a disjunction: its most expensive
// member dominates the retrieval, so the maximum group stands in.
func costGroupSet(rels topo.Set) int {
	g := 0
	for _, r := range topo.All() {
		if rels.Has(r) && CostGroup(r) > g {
			g = CostGroup(r)
		}
	}
	return g
}

// joinSweepDensity estimates, from both sides' node-MBR statistics,
// the fraction of entry pairs inside a matched node pair that
// x-overlap — the fan-out hint the join engine's adaptive matcher
// uses to pick plane sweep or nested loop per node pair. Entries of a
// matched pair live in a window about one leaf node wide, and two
// intervals of widths w₁, w₂ dropped into a window of width s overlap
// with probability ≈ (w₁+w₂)/s. 0 (unknown) when either side lacks
// statistics, leaving the engine's size-only rule in charge.
func joinSweepDensity(left, right index.Index) float64 {
	ls := joinSideStats(left)
	rs := joinSideStats(right)
	if ls == nil || rs == nil {
		return 0
	}
	// Average leaf-node x-span per side: margin is width + height and
	// leaf nodes are near-square under the STR and R* split rules.
	span := func(st *rtree.TreeStats) float64 {
		leaf := st.Levels[0]
		if leaf.Nodes == 0 {
			return 0
		}
		return leaf.MarginSum / float64(leaf.Nodes) / 2
	}
	s := max(span(ls), span(rs))
	if s <= 0 {
		return 0
	}
	return min((ls.X.MeanExtent+rs.X.MeanExtent)/s, 1)
}

func joinSideStats(idx index.Index) *rtree.TreeStats {
	st, err := index.StatsOf(idx)
	if err != nil || st == nil || st.Samples() == 0 || len(st.Levels) == 0 {
		return nil
	}
	return st
}

// appendActual extends an explain line with the observed candidate
// count, so `-explain` output shows estimated vs actual side by side.
func appendActual(explain string, candidates int) string {
	if explain == "" {
		return ""
	}
	var b strings.Builder
	b.WriteString(explain)
	fmt.Fprintf(&b, " actual=%d", candidates)
	return b.String()
}
