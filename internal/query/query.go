// Package query implements the paper's core contribution: the 4-step
// strategy for retrieving topological relations from MBR-based access
// methods (Section 4), extended to disjunctive queries, two-reference
// conjunctions with composition-based empty-result detection
// (Section 5), and non-crisp MBR retrieval via conceptual
// neighbourhoods (Section 6).
//
// The four steps, for "find all objects p with relation r to q":
//
//  1. Compute the MBR configurations that may enclose qualifying
//     objects (Table 1, package mbr).
//  2. Determine the acceptance test for leaf MBRs from those
//     configurations.
//  3. Prune the tree: descend only into intermediate nodes whose
//     rectangles can contain qualifying MBRs (Table 2 propagation for
//     covering node rectangles; region feasibility for R+-trees).
//  4. Refine the surviving candidates with exact computational
//     geometry — except in the configurations of Figure 9, where the
//     MBRs alone decide the relation.
package query

import (
	"context"
	"fmt"

	"mbrtopo/internal/geom"
	"mbrtopo/internal/index"
	"mbrtopo/internal/mbr"
	"mbrtopo/internal/rtree"
	"mbrtopo/internal/topo"
)

// ObjectStore resolves object ids to exact geometry for the
// refinement step. Objects are Regions: simple polygons (contiguous)
// or multi-polygons (the Section 7 non-contiguous extension).
type ObjectStore interface {
	// Object returns the region stored under oid.
	Object(oid uint64) (geom.Region, bool)
}

// MapStore is a trivial in-memory ObjectStore over simple polygons.
type MapStore map[uint64]geom.Polygon

// Object implements ObjectStore.
func (m MapStore) Object(oid uint64) (geom.Region, bool) {
	pg, ok := m[oid]
	return pg, ok
}

// RegionStore is an in-memory ObjectStore over arbitrary regions
// (polygons and multi-polygons).
type RegionStore map[uint64]geom.Region

// Object implements ObjectStore.
func (m RegionStore) Object(oid uint64) (geom.Region, bool) {
	r, ok := m[oid]
	return r, ok
}

// Match is one query answer (or filter-step candidate).
type Match struct {
	OID  uint64
	Rect geom.Rect
	// Text is Rect in wire form, [minx,miny,maxx,maxy], on a streamed
	// match whose leaf had it rendered (rtree.Hit.Text); empty otherwise,
	// and always on materialised results. It saves a server rendering
	// the same stored floats again, nothing more: Rect is the answer.
	Text string
	// First is set on a streamed match that is the first its leaf
	// delivered (rtree.Hit.SameLeaf), and always on one whose hit came
	// from no leaf of a tree; never on materialised results. It tells a
	// consumer that batches lines under a time rule where reading its
	// clock is worth it.
	First bool
}

// Stats describes the work a query performed, in the units the paper
// reports.
type Stats struct {
	// NodeAccesses is the number of tree pages read during the filter
	// step (the paper's "disk accesses per search").
	NodeAccesses uint64
	// Candidates is the number of distinct MBRs the filter retrieved
	// (the paper's "hits per search", Table 3).
	Candidates int
	// RefinementTests counts candidates that needed exact geometry.
	RefinementTests int
	// DirectAccepts counts candidates accepted from their MBR
	// configuration alone (Figure 9).
	DirectAccepts int
	// FalseHits counts candidates rejected by refinement.
	FalseHits int
	// HullResolved counts candidates the convex-hull second filter
	// (Brinkhoff et al. 1994) resolved without an exact geometry test.
	HullResolved int
	// ShortCircuited is set when a conjunction was answered empty from
	// the composition table without touching the index (Table 4).
	ShortCircuited bool
	// Explain says what ran: "plan=single" for a descent under one
	// term's predicates, "plan=conjunction terms=2" for a descent under
	// both terms', "plan=conjunction short-circuit refs=<relation>" when
	// Table 4 answered empty. `topoquery -explain` and the wire stats
	// line (on request) print it.
	Explain string
}

// The values of Stats.Explain; a short circuit names the relation
// between the two references after its prefix.
const (
	explainSingle       = "plan=single"
	explainConjunction  = "plan=conjunction terms=2"
	explainShortCircuit = "plan=conjunction short-circuit refs="
)

// Result bundles matches with the query statistics.
type Result struct {
	Matches []Match
	Stats   Stats
}

// Processor executes topological queries against one access method.
type Processor struct {
	// Idx is the access method holding the object MBRs.
	Idx index.Index
	// Objects resolves exact geometry for refinement. When nil, queries
	// return filter-step candidates without refinement (the mode the
	// paper's experiments measure, since its data files contain only
	// MBRs).
	Objects ObjectStore
	// NonCrisp enables the Section 6 mode: stored MBRs may be up to two
	// conceptual-neighbourhood steps larger than crisp, so the filter
	// uses the Table 5 expanded configuration sets and every candidate
	// is refined.
	NonCrisp bool
	// NonContiguous enables the Section 7 mode: objects may consist of
	// several disconnected components, so the filter uses the relaxed
	// candidate tables (disjoint → all configurations, meet → all
	// point-sharing configurations).
	NonContiguous bool
	// SecondFilter enables the convex-hull filter step between the MBR
	// filter and exact refinement (Brinkhoff et al. 1994, cited by the
	// paper): candidates whose hull-level relation already decides
	// membership skip the exact test.
	SecondFilter bool
}

// tables is a contiguity mode's pair of tables: Table 1, from a relation
// set to the MBR configurations its objects may stand in, and its dual
// (Figure 5), from a configuration to the relations it admits. The
// Section 7 mode relaxes both (disjoint → every configuration, meet →
// every point-sharing one). Processor and join pick theirs here.
type tables struct {
	candidates func(topo.Set) mbr.ConfigSet
	possible   func(mbr.Config) topo.Set
}

func tablesFor(nonContiguous bool) tables {
	if nonContiguous {
		return tables{mbr.CandidatesNonContiguousSet, mbr.PossibleRelationsNonContiguous}
	}
	return tables{mbr.CandidatesSet, mbr.PossibleRelations}
}

// decides is Figure 9 generalised to disjunctions: every relation the
// configuration of a against b admits is wanted, so the pair qualifies
// without a look at the geometry.
func (t tables) decides(a, b geom.Rect, rels topo.Set) bool {
	return t.possible(mbr.ConfigOf(a, b)).SubsetOf(rels)
}

// candidateConfigs maps a relation disjunction to the admissible MBR
// configurations under the processor's modes.
func (p *Processor) candidateConfigs(rels topo.Set) mbr.ConfigSet {
	c := tablesFor(p.NonContiguous).candidates(rels)
	if p.NonCrisp {
		c = mbr.Expand2(c)
	}
	return c
}

// joinTests and mbr.Filter are the package's one rectangle test, "a
// stands in one of cfgs against b", compiled by mbr.Compile: for a
// join, Table 1's candidates at the leaves and their join propagation
// above them; for a descent, a window on the reference. The sign masks
// reject most rectangles with a few comparisons, soundly, and the exact
// probe runs behind them unless they decide the set alone.
func joinTests(cands mbr.ConfigSet) (prune, accept mbr.Test) {
	return mbr.Compile(mbr.JoinPropagation(cands)), mbr.Compile(cands)
}

// filterPreds derives the node and leaf predicates of steps 2 and 3:
// leaves are tested against the candidate configurations, covering
// node rectangles against their Table 2 propagation. The R+
// partition-region path keeps its dedicated predicate: partition
// regions are not tight MBRs, so endpoint-sign reasoning does not
// apply to them.
func (p *Processor) filterPreds(cands mbr.ConfigSet, refMBR geom.Rect) (nodePred, leafPred func(geom.Rect) bool) {
	if p.Idx.CoveringNodeRects() {
		nodePred = mbr.Filter(mbr.Propagation(cands), refMBR)
	} else {
		nodePred = mbr.PartitionNodePredicate(cands, refMBR)
	}
	return nodePred, mbr.Filter(cands, refMBR)
}

// descend is the filter descent of steps 2 and 3, and the only
// traversal in the package: every query class — streamed or
// materialised, one term or two, region, line, direction or point —
// is this function under a different pair of predicates. It calls
// yield once per distinct object id (an R+-tree registers an object in
// every leaf its rectangle crosses, and any tree holds an id twice if
// it was inserted twice) in tree order, and stops as soon as yield
// returns false or limit > 0 matches have been taken. NodeAccesses
// comes from the traversal's own accounting, so it is exact even when
// many queries share the index; Candidates counts the matches yield
// accepted. On an error, cancellation included, the stats cover the
// pages read up to that point.
func (p *Processor) descend(ctx context.Context, nodePred, leafPred func(geom.Rect) bool, limit int, yield func(rtree.Hit) bool) (Stats, error) {
	seen := oidSets.Get().(*oidSet)
	defer seen.release()
	emitted := 0
	ts, err := p.Idx.SearchHits(ctx, nodePred, leafPred, func(h rtree.Hit) bool {
		if !seen.add(h.OID) {
			return true
		}
		if !yield(h) {
			return false
		}
		emitted++
		return limit <= 0 || emitted < limit
	})
	stats := Stats{NodeAccesses: ts.NodeAccesses, Candidates: emitted, Explain: explainSingle}
	if err != nil {
		return stats, fmt.Errorf("query: filter step: %w", err)
	}
	return stats, nil
}

// step4 is the strategy's last step for one candidate. Where its MBR
// configuration alone decides it (direct — Figure 9; a caller never
// claims it in non-crisp mode, where the stored MBR may be larger than
// the true one) it is accepted unseen; otherwise exact fetches the
// geometry and tests it. An error from exact (an object its store does
// not hold) is returned with no counter moved.
func step4(stats *Stats, direct bool, exact func() (bool, error)) (bool, error) {
	if direct {
		stats.DirectAccepts++
		return true, nil
	}
	ok, err := exact()
	if err != nil {
		return false, err
	}
	stats.RefinementTests++
	if !ok {
		stats.FalseHits++
	}
	return ok, nil
}

// refined is the result of a query class whose filter step left cands
// and stats: the candidates decide accepts, in candidate order, and the
// counters decide moved.
func refined(cands []Match, stats Stats, decide func(*Stats, Match) (bool, error)) (Result, error) {
	res := Result{Matches: cands[:0:0], Stats: stats}
	for _, m := range cands {
		ok, err := decide(&res.Stats, m)
		if err != nil {
			return Result{}, err
		}
		if ok {
			res.Matches = append(res.Matches, m)
		}
	}
	return res, nil
}

// object fetches a candidate's geometry for an exact test.
func (p *Processor) object(oid uint64) (geom.Region, error) {
	obj, ok := p.Objects.Object(oid)
	if !ok {
		return nil, fmt.Errorf("query: refinement needs object %d, not in store", oid)
	}
	return obj, nil
}

// hullFilter is the second filter step of Brinkhoff et al. (1994),
// between the MBR filter and the exact test: where the relation of the
// two convex hulls already rules the wanted relations in or out, the
// candidate is resolved without exact geometry.
func hullFilter(stats *Stats, obj geom.Region, refHull geom.Polygon, rels topo.Set) (accept, resolved bool) {
	poss := geom.PossibleGivenHulls(geom.Relate(geom.HullOf(obj), refHull))
	switch {
	case poss.Intersect(rels).IsEmpty():
		stats.HullResolved++
		stats.FalseHits++
		return false, true
	case poss.SubsetOf(rels):
		stats.HullResolved++
		return true, true
	}
	return false, false
}
