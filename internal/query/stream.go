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
// reference MBR, calling yield for each candidate (oid, rect)
// registration as the traversal finds it (tree order, not OID order).
// Returning false from yield stops the traversal immediately; limit > 0
// additionally caps the number of matches delivered. The returned Stats cover exactly
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
	node, leaf := p.filterPreds(p.candidateConfigs(rels), refMBR)
	return p.descend(ctx, node, leaf, limit, withText(yield))
}

// withText makes a streamed Match of each hit, asking its leaf for the
// rectangle's wire text — which is what earns a leaf its text, so only
// the streaming entry points, whose consumer is a wire, do it — and
// marking the first match of each leaf (Match.First).
func withText(yield func(Match) bool) func(rtree.Hit) bool {
	var last rtree.Hit
	return func(h rtree.Hit) bool {
		first := !h.SameLeaf(last)
		last = h
		return yield(Match{OID: h.OID, Rect: h.Rect, Text: h.Text(), First: first})
	}
}

// StreamConjunction is the streaming (filter-level) face of the
// Section 5 conjunction: find all stored MBRs that are candidates for
// rels1 against ref1 AND candidates for rels2 against ref2. Like
// Stream it never touches exact geometry, so it serves the wire path,
// whose data are rectangles.
//
// The composition table comes first, as in the paper: if no (r1, r2)
// pair is consistent with the relation between the two references, the
// exact result is provably empty and the traversal is skipped —
// candidates of an empty conjunction are pure false hits. Otherwise the
// conjunction is ONE descent pruned by both terms (conjunctionPreds).
// The paper retrieves one term through the index and tests the other
// in memory, which leaves a side to choose; with both node predicates
// steering a covering tree (R, R*, tile bounds) there is none: the
// answer, its order and the pages read do not depend on which term is
// written first, and the descent reads no more pages than either
// term's own would. On an R+-tree the first term steers (see
// conjunctionPreds): the same objects either way round, in the first
// term's stream order, in no more pages than the first term alone.
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
			Explain:        explainShortCircuit + refRel.String(),
		}, nil
	}

	// Step 2: one descent under both terms' predicates.
	node, leaf := p.conjunctionPreds(rels1, ref1, rels2, ref2)
	stats, err := p.descend(ctx, node, leaf, limit, withText(yield))
	stats.Explain = explainConjunction
	return stats, err
}

// conjunctionPreds derives the tests of r1(p, q1) ∧ r2(p, q2): each
// term's own node and leaf test (filterPreds), and-ed (mbr.Pred.And).
// On a covering rectangle a term's node test — its Table 2 propagation
// — is a necessary condition, on its own, for a qualifying leaf entry
// anywhere below the node, so a subtree either of them rejects holds no
// entry that passes both leaf tests: pruning by the conjunction loses
// nothing, and the leaf entries that match, in tree order, are the ones
// either single-term descent would have met. Where both terms' sets
// compile exact (every single relation but disjoint and meet, in,
// not_disjoint) each level is one window, the intersection of the two
// terms' boxes, and no call.
//
// An R+-tree registers an object in every leaf its rectangle crosses,
// and a term's partition predicate promises less: that ONE of those
// registrations is reached (the path over the reference's centre for a
// containing object, a leaf meeting the reference for a touching one).
// Two such promises may name different leaves — an object containing q1
// and overlapping a far q2 is reached near q1 by the first term and
// near q2 by the second, and by no path under both — so there the first
// term steers and the second contributes mbr.RegionFeasible over all
// its configurations, the condition that does hold at every
// registration of a qualifying object.
func (p *Processor) conjunctionPreds(rels1 topo.Set, ref1 geom.Rect, rels2 topo.Set, ref2 geom.Rect) (node, leaf mbr.Pred) {
	cands2 := p.candidateConfigs(rels2)
	node1, leaf1 := p.filterPreds(p.candidateConfigs(rels1), ref1)
	node2, leaf2 := p.filterPreds(cands2, ref2)
	if !p.Idx.CoveringNodeRects() {
		node2 = mbr.Func(func(region geom.Rect) bool { return mbr.RegionFeasible(cands2, region, ref2) })
	}
	return node1.And(node2), leaf1.And(leaf2)
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
