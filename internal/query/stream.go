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
// the pages this traversal read before it stopped. It is StreamLeaves
// one match at a time.
//
// On cancellation Stream returns ctx.Err() together with the stats
// accumulated so far.
func (p *Processor) Stream(ctx context.Context, rels topo.Set, refMBR geom.Rect, limit int, yield func(Match) bool) (Stats, error) {
	taken := 0
	stats, err := p.StreamLeaves(ctx, rels, refMBR, limit, perMatch(yield, &taken))
	stats.Candidates += taken
	return stats, err
}

// StreamLeaves is the filter step of Stream as the descent delivers it:
// yield is called once per leaf with that leaf's candidate
// registrations, in entry order, leaves in tree order (descend), and
// may read the batch only until it returns. limit > 0 cuts the batch
// that reaches it. A wire consumer renders a batch in one loop, from
// the leaf's earned text (rtree.Leaf.Lines).
func (p *Processor) StreamLeaves(ctx context.Context, rels topo.Set, refMBR geom.Rect, limit int, yield func(rtree.Leaf) bool) (Stats, error) {
	if rels.IsEmpty() {
		return Stats{}, fmt.Errorf("query: empty relation set")
	}
	if !refMBR.Valid() {
		return Stats{}, fmt.Errorf("query: degenerate reference MBR %v", refMBR)
	}
	node, leaf := p.filterPreds(p.testsFor(rels, nonContiguous(p.NonContiguous, nil, p.Objects)), refMBR)
	return p.descend(ctx, node, leaf, limit, yield)
}

// perMatch adapts a per-match yield to the descent's per-leaf one. The
// descent does not count a batch whose yield stopped, so taken keeps
// how many matches of that batch yield accepted.
func perMatch(yield func(Match) bool, taken *int) func(rtree.Leaf) bool {
	return func(l rtree.Leaf) bool {
		for i := range l.Len() {
			h := l.Hit(i)
			if !yield(Match{OID: h.OID, Rect: h.Rect}) {
				*taken = i
				return false
			}
		}
		return true
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
// term's stream order, in no more pages than the first term alone. It
// is StreamConjunctionLeaves one match at a time.
func (p *Processor) StreamConjunction(ctx context.Context, rels1 topo.Set, ref1 geom.Rect, rels2 topo.Set, ref2 geom.Rect, limit int, yield func(Match) bool) (Stats, error) {
	taken := 0
	stats, err := p.StreamConjunctionLeaves(ctx, rels1, ref1, rels2, ref2, limit, perMatch(yield, &taken))
	stats.Candidates += taken
	return stats, err
}

// StreamConjunctionLeaves is StreamConjunction one leaf at a time, as
// StreamLeaves is Stream.
func (p *Processor) StreamConjunctionLeaves(ctx context.Context, rels1 topo.Set, ref1 geom.Rect, rels2 topo.Set, ref2 geom.Rect, limit int, yield func(rtree.Leaf) bool) (Stats, error) {
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
	relaxed := nonContiguous(p.NonContiguous, nil, p.Objects)
	node, leaf := p.conjunctionPreds(p.testsFor(rels1, relaxed), ref1, p.testsFor(rels2, relaxed), ref2)
	stats, err := p.descend(ctx, node, leaf, limit, yield)
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
func (p *Processor) conjunctionPreds(t1 *setTests, ref1 geom.Rect, t2 *setTests, ref2 geom.Rect) (node, leaf mbr.Pred) {
	node1, leaf1 := p.filterPreds(t1, ref1)
	node2, leaf2 := p.filterPreds(t2, ref2)
	if !p.Idx.CoveringNodeRects() {
		cands2 := t2.cands
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
