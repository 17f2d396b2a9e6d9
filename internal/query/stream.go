package query

import (
	"context"
	"fmt"
	"iter"

	"mbrtopo/internal/geom"
	"mbrtopo/internal/mbr"
	"mbrtopo/internal/rtree"
	"mbrtopo/internal/topo"
)

// This file is the streaming face of the 4-step strategy, and the
// package's API proper: matches are delivered one by one as the
// descent finds them, and the traversal stops as soon as the consumer
// has seen enough. Streaming queries run the filter step only (like
// QueryMBR) — refinement needs the full candidate set ordering, so
// geometric queries go through the materialising helpers of batch.go.

// Stream runs the filter step for a disjunctive relation set against a
// reference MBR, calling yield for each distinct candidate as the
// traversal finds it (tree order, not OID order). Returning false from
// yield stops the traversal immediately; limit > 0 additionally caps
// the number of matches delivered. The returned Stats cover exactly
// the pages this traversal read before it stopped.
//
// On cancellation Stream returns ctx.Err() together with the stats
// accumulated so far.
func (p *Processor) Stream(ctx context.Context, rels topo.Set, refMBR geom.Rect, limit int, yield func(Match) bool) (Stats, error) {
	if rels.IsEmpty() {
		return Stats{}, fmt.Errorf("query: empty relation set")
	}
	if !refMBR.Valid() {
		return Stats{}, fmt.Errorf("query: degenerate reference MBR %v", refMBR)
	}
	nodePred, leafPred := p.filterPreds(p.candidateConfigs(rels), refMBR)
	return p.descend(ctx, nodePred, leafPred, limit, withText(yield))
}

// withText makes a streamed Match of each hit, asking its leaf for the
// rectangle's wire text — which is what earns a leaf its text, so only
// the streaming entry points, whose consumer is a wire, do it.
func withText(yield func(Match) bool) func(rtree.Hit) bool {
	return func(h rtree.Hit) bool {
		return yield(Match{OID: h.OID, Rect: h.Rect, Text: h.Text()})
	}
}

// StreamConjunction is the streaming (filter-level) face of the
// Section 5 conjunction: find all stored MBRs that are candidates for
// rels1 against ref1 AND candidates for rels2 against ref2. Like
// Stream it never touches exact geometry, so it serves the wire path,
// whose data are rectangles.
//
// The paper's processing order is kept: the composition table first
// (if no (r1, r2) pair is consistent with the relation between the
// two references, the exact result is provably empty and the
// traversal is skipped — candidates of an empty conjunction are pure
// false hits); then ONE side is retrieved through the index — the
// side the planner estimates cheaper, or the static CostGroup choice
// without statistics — and the other side is tested in memory against
// each retrieved candidate (domination pre-test, then the
// configuration probe).
func (p *Processor) StreamConjunction(ctx context.Context, rels1 topo.Set, ref1 geom.Rect, rels2 topo.Set, ref2 geom.Rect, limit int, yield func(Match) bool) (Stats, error) {
	if rels1.IsEmpty() || rels2.IsEmpty() {
		return Stats{}, fmt.Errorf("query: empty relation set")
	}
	if !ref1.Valid() || !ref2.Valid() {
		return Stats{}, fmt.Errorf("query: degenerate reference MBR")
	}

	// Step 1: semantic optimisation. The references arrive as MBRs, so
	// their mutual relation is exact (rectangles are their own MBRs).
	refRel := mbr.RelateRects(ref1, ref2)
	consistent := false
scan:
	for _, r1 := range topo.All() {
		if !rels1.Has(r1) {
			continue
		}
		for _, r2 := range topo.All() {
			if rels2.Has(r2) && topo.ConsistentConjunction(r1, r2, refRel) {
				consistent = true
				break scan
			}
		}
	}
	if !consistent {
		return Stats{
			ShortCircuited: true,
			Explain:        fmt.Sprintf("plan=conjunction short-circuit refs=%s", refRel),
		}, nil
	}

	// Step 2: pick the retrieval side.
	plan := planConjunction(PlannerFor(p.Idx), rels1, ref1, rels2, ref2)
	getRels, getRef, memRels, memRef := rels1, ref1, rels2, ref2
	if plan.retrieveSecond {
		getRels, getRef, memRels, memRef = rels2, ref2, rels1, ref1
	}

	// Step 3: descend on the retrieved side; the other term rides along
	// as a second test on every leaf rectangle the first one admits.
	nodePred, getPred := p.filterPreds(p.candidateConfigs(getRels), getRef)
	memPred := admits(p.candidateConfigs(memRels), memRef)
	stats, err := p.descend(ctx, nodePred,
		func(r geom.Rect) bool { return getPred(r) && memPred(r) }, limit, withText(yield))
	stats.Reordered = plan.reordered
	stats.Explain = appendActual(plan.explain, stats.Candidates)
	return stats, err
}

// Matches returns the streaming filter step as an iterator, for
// range-over-func consumers:
//
//	for m, err := range p.Matches(ctx, rels, refMBR, 0) {
//	    if err != nil { ... }
//	    use(m)
//	}
//
// A non-nil error, if any, is the final pair's second value (with a
// zero Match). Breaking out of the loop stops the traversal. A
// consumer that wants to pull instead wraps the iterator in iter.Pull2
// and calls its stop function when done.
func (p *Processor) Matches(ctx context.Context, rels topo.Set, refMBR geom.Rect, limit int) iter.Seq2[Match, error] {
	return func(yield func(Match, error) bool) {
		stopped := false
		_, err := p.Stream(ctx, rels, refMBR, limit, func(m Match) bool {
			if !yield(m, nil) {
				stopped = true
				return false
			}
			return true
		})
		if err != nil && !stopped {
			yield(Match{}, err)
		}
	}
}
