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
	"runtime"
	"sync"
	"sync/atomic"

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

// add folds the counters of one more traversal into s. The plan
// fields (ShortCircuited, Explain) describe one query and are not
// summed.
func (s *Stats) add(t Stats) {
	s.NodeAccesses += t.NodeAccesses
	s.Candidates += t.Candidates
	s.RefinementTests += t.RefinementTests
	s.DirectAccepts += t.DirectAccepts
	s.FalseHits += t.FalseHits
	s.HullResolved += t.HullResolved
}

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
	// RefineWorkers bounds the worker pool of the refinement step.
	// Step 4 of the paper's strategy tests each candidate independently,
	// so it parallelises cleanly: values > 1 refine candidates on that
	// many goroutines (result order and statistics are unchanged).
	// 0 or 1 refines serially; a negative value uses GOMAXPROCS.
	RefineWorkers int
}

// refineParallelMin is the candidate count below which parallel
// refinement is not worth the goroutine setup.
const refineParallelMin = 16

// refineWorkers resolves the configured pool size.
func (p *Processor) refineWorkers() int {
	switch {
	case p.RefineWorkers < 0:
		return runtime.GOMAXPROCS(0)
	case p.RefineWorkers == 0:
		return 1
	default:
		return p.RefineWorkers
	}
}

// candidateConfigs maps a relation disjunction to the admissible MBR
// configurations under the processor's modes.
func (p *Processor) candidateConfigs(rels topo.Set) mbr.ConfigSet {
	var c mbr.ConfigSet
	if p.NonContiguous {
		c = mbr.CandidatesNonContiguousSet(rels)
	} else {
		c = mbr.CandidatesSet(rels)
	}
	if p.NonCrisp {
		c = mbr.Expand2(c)
	}
	return c
}

// possibleRelations is the mode-aware dual of Table 1.
func (p *Processor) possibleRelations(c mbr.Config) topo.Set {
	if p.NonContiguous {
		return mbr.PossibleRelationsNonContiguous(c)
	}
	return mbr.PossibleRelations(c)
}

// pairTest is the one rectangle-pair test of the package, "a stands in
// one of cfgs against b": the filter descent closes it over the query
// reference (admits), the join hands it to the engine as prune and
// accept, over node and leaf rectangles alike. The per-axis domination
// pre-test (mbr.DominationFor) runs ahead of the exact configuration
// probe: four sign comparisons an axis reject most non-qualifying pairs
// without paying the two interval decision trees, and the pre-test is
// provably sound (it never rejects a pair the exact test accepts).
type pairTest struct {
	dom  mbr.Domination
	cfgs mbr.ConfigSet
}

func pairTestFor(cfgs mbr.ConfigSet) pairTest {
	return pairTest{dom: mbr.DominationFor(cfgs), cfgs: cfgs}
}

func (p pairTest) admits(a, b geom.Rect) bool {
	return p.dom.Admits(a, b) && p.cfgs.Has(mbr.ConfigOf(a, b))
}

// admits builds the rectangle test "r stands in one of cfgs against
// ref".
func admits(cfgs mbr.ConfigSet, ref geom.Rect) func(geom.Rect) bool {
	p := pairTestFor(cfgs)
	return func(r geom.Rect) bool { return p.admits(r, ref) }
}

// filterPreds derives the node and leaf predicates of steps 2 and 3:
// leaves are tested against the candidate configurations, covering
// node rectangles against their Table 2 propagation. The R+
// partition-region path keeps its dedicated predicate: partition
// regions are not tight MBRs, so endpoint-sign reasoning does not
// apply to them.
func (p *Processor) filterPreds(cands mbr.ConfigSet, refMBR geom.Rect) (nodePred, leafPred func(geom.Rect) bool) {
	if p.Idx.CoveringNodeRects() {
		nodePred = admits(mbr.Propagation(cands), refMBR)
	} else {
		nodePred = mbr.PartitionNodePredicate(cands, refMBR)
	}
	return nodePred, admits(cands, refMBR)
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

// refineVerdict is the outcome of refining one candidate: whether it
// is a match, and which statistics counters its test touched.
type refineVerdict struct {
	accept         bool
	directAccept   bool
	hullResolved   bool
	refinementTest bool
	falseHit       bool
	missingOID     uint64
	missing        bool
}

// refineOne applies step 4 to a single candidate. It only reads
// Processor state, so verdicts for different candidates can be
// computed concurrently.
func (p *Processor) refineOne(m Match, rels topo.Set, refMBR geom.Rect, ref geom.Region, refHull geom.Polygon) refineVerdict {
	cfg := mbr.ConfigOf(m.Rect, refMBR)
	// Figure 9 generalised to disjunctions: if every relation the
	// configuration admits is wanted, accept without geometry. Not
	// applicable in non-crisp mode, where the stored MBR may be
	// larger than the true one.
	if !p.NonCrisp && p.possibleRelations(cfg).SubsetOf(rels) {
		return refineVerdict{accept: true, directAccept: true}
	}
	obj, ok := p.Objects.Object(m.OID)
	if !ok {
		return refineVerdict{missing: true, missingOID: m.OID}
	}
	if p.SecondFilter {
		poss := geom.PossibleGivenHulls(geom.Relate(geom.HullOf(obj), refHull))
		switch {
		case poss.Intersect(rels).IsEmpty():
			return refineVerdict{hullResolved: true, falseHit: true}
		case poss.SubsetOf(rels):
			return refineVerdict{accept: true, hullResolved: true}
		}
	}
	if rels.Has(geom.RelateRegions(obj, ref)) {
		return refineVerdict{accept: true, refinementTest: true}
	}
	return refineVerdict{refinementTest: true, falseHit: true}
}

// refine applies step 4 to the candidates, optionally routed through
// the convex-hull second filter. With RefineWorkers > 1 the exact
// geometry tests run on a bounded worker pool; verdicts are folded in
// candidate order, so matches and statistics are identical to the
// serial run. The ObjectStore must then be safe for concurrent reads
// (the map-backed stores are, as long as nothing mutates them).
func (p *Processor) refine(ctx context.Context, cands []Match, rels topo.Set, refMBR geom.Rect, ref geom.Region, stats *Stats) ([]Match, error) {
	var refHull geom.Polygon
	if p.SecondFilter {
		refHull = geom.HullOf(ref)
	}
	verdicts := make([]refineVerdict, len(cands))
	if workers := p.refineWorkers(); workers > 1 && len(cands) >= refineParallelMin {
		if workers > len(cands) {
			workers = len(cands)
		}
		var next atomic.Int64
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(cands) || ctx.Err() != nil {
						return
					}
					verdicts[i] = p.refineOne(cands[i], rels, refMBR, ref, refHull)
				}
			}()
		}
		wg.Wait()
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	} else {
		for i, m := range cands {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			verdicts[i] = p.refineOne(m, rels, refMBR, ref, refHull)
		}
	}
	out := cands[:0:0]
	for i, v := range verdicts {
		if v.missing {
			return nil, fmt.Errorf("query: refinement needs object %d, not in store", v.missingOID)
		}
		if v.directAccept {
			stats.DirectAccepts++
		}
		if v.hullResolved {
			stats.HullResolved++
		}
		if v.refinementTest {
			stats.RefinementTests++
		}
		if v.falseHit {
			stats.FalseHits++
		}
		if v.accept {
			out = append(out, cands[i])
		}
	}
	return out, nil
}
