package query

import (
	"context"
	"fmt"
	"sort"

	"mbrtopo/internal/direction"
	"mbrtopo/internal/geom"
	"mbrtopo/internal/index"
	"mbrtopo/internal/mbr"
	"mbrtopo/internal/rtree"
	"mbrtopo/internal/topo"
)

// This file holds every materialising helper — what the experiments,
// the examples and topoquery call when they want a whole answer at
// once. Each one checks its arguments, picks the candidate
// configurations of its query class (step 1), collects the one filter
// descent, and applies the refinement its class needs (step 4). They
// take no context: a caller that must bound or cancel a query uses the
// streaming API (Stream, StreamConjunction, JoinStream).

// collect materialises one filter descent: every distinct candidate,
// sorted by OID.
func (p *Processor) collect(nodePred, leafPred func(geom.Rect) bool) ([]Match, Stats, error) {
	var matches []Match
	stats, err := p.descend(context.Background(), nodePred, leafPred, 0, func(h rtree.Hit) bool {
		matches = append(matches, Match{OID: h.OID, Rect: h.Rect})
		return true
	})
	if err != nil {
		return nil, Stats{}, err
	}
	sort.Slice(matches, func(i, j int) bool { return matches[i].OID < matches[j].OID })
	return matches, stats, nil
}

// Query runs the 4-step retrieval for a single relation against a
// reference region given by its exact geometry (a Polygon or a
// MultiPolygon).
func (p *Processor) Query(rel topo.Relation, ref geom.Region) (Result, error) {
	return p.QuerySet(topo.NewSet(rel), ref)
}

// QueryMBR runs the filter step only, against a reference MBR — the
// setting of the paper's experiments, where the data file consists of
// rectangles. No refinement is possible without geometry.
func (p *Processor) QueryMBR(rel topo.Relation, refMBR geom.Rect) (Result, error) {
	return p.querySet(topo.NewSet(rel), refMBR, nil)
}

// QuerySet runs a disjunctive (low-resolution) query, e.g. the
// cadastral "in" = inside ∨ covered_by of Section 5.
func (p *Processor) QuerySet(rels topo.Set, ref geom.Region) (Result, error) {
	if err := validRegion(ref); err != nil {
		return Result{}, err
	}
	return p.querySet(rels, ref.Bounds(), ref)
}

// QuerySetMBR runs a disjunctive filter step against a reference MBR.
func (p *Processor) QuerySetMBR(rels topo.Set, refMBR geom.Rect) (Result, error) {
	return p.querySet(rels, refMBR, nil)
}

func validRegion(ref geom.Region) error {
	if ref == nil {
		return fmt.Errorf("query: nil reference region")
	}
	if err := ref.Validate(); err != nil {
		return fmt.Errorf("query: invalid reference region: %w", err)
	}
	return nil
}

func (p *Processor) querySet(rels topo.Set, refMBR geom.Rect, ref geom.Region) (Result, error) {
	if rels.IsEmpty() {
		return Result{}, fmt.Errorf("query: empty relation set")
	}
	if !refMBR.Valid() {
		return Result{}, fmt.Errorf("query: degenerate reference MBR %v", refMBR)
	}
	// Step 1: admissible MBR configurations (Table 1, adjusted for the
	// non-contiguous and non-crisp modes). Steps 2+3: prune and collect.
	matches, stats, err := p.collect(p.filterPreds(p.candidateConfigs(rels), refMBR))
	if err != nil {
		return Result{}, err
	}
	if p.Objects == nil || ref == nil {
		return Result{Matches: matches, Stats: stats}, nil
	}
	// Step 4: refinement, with the convex-hull second filter in front of
	// the exact test when asked for.
	tb := tablesFor(p.NonContiguous)
	var refHull geom.Polygon
	if p.SecondFilter {
		refHull = geom.HullOf(ref)
	}
	return refined(matches, stats, func(stats *Stats, m Match) (bool, error) {
		direct := !p.NonCrisp && tb.decides(m.Rect, refMBR, rels)
		var obj geom.Region
		if !direct {
			var err error
			if obj, err = p.object(m.OID); err != nil {
				return false, err
			}
			if p.SecondFilter {
				if accept, resolved := hullFilter(stats, obj, refHull, rels); resolved {
					return accept, nil
				}
			}
		}
		return step4(stats, direct, func() (bool, error) {
			return rels.Has(geom.RelateRegions(obj, ref)), nil
		})
	})
}

// QueryConjunction answers r1(p, q1) ∧ r2(p, q2) for two reference
// objects (Section 5):
//
//  1. Examine the relation between the reference objects. If it lies
//     in the Table 4 entry for (r1, r2) — the complement of the
//     composition r1˘ ∘ r2 — the result is provably empty and no disk
//     access happens.
//  2. Otherwise run one filter descent pruned by both terms
//     (conjunctionPreds): its candidates are the stored MBRs whose
//     configuration is admissible for r1 against q1 and for r2 against
//     q2.
//  3. Refine both predicates with exact geometry.
func (p *Processor) QueryConjunction(r1 topo.Relation, q1 geom.Region, r2 topo.Relation, q2 geom.Region) (Result, error) {
	if p.Objects == nil {
		return Result{}, fmt.Errorf("query: conjunction needs an ObjectStore for refinement")
	}
	if q1 == nil || q2 == nil {
		return Result{}, fmt.Errorf("query: nil reference region")
	}
	if err := q1.Validate(); err != nil {
		return Result{}, fmt.Errorf("query: reference q1: %w", err)
	}
	if err := q2.Validate(); err != nil {
		return Result{}, fmt.Errorf("query: reference q2: %w", err)
	}
	if !topo.ConsistentConjunction(r1, r2, geom.RelateRegions(q1, q2)) {
		return Result{Stats: Stats{ShortCircuited: true}}, nil
	}

	matches, stats, err := p.collect(p.conjunctionPreds(topo.NewSet(r1), q1.Bounds(), topo.NewSet(r2), q2.Bounds()))
	if err != nil {
		return Result{}, err
	}
	stats.Explain = explainConjunction

	// Step 4: no configuration decides both terms, so every candidate is
	// tested.
	return refined(matches, stats, func(stats *Stats, m Match) (bool, error) {
		return step4(stats, false, func() (bool, error) {
			obj, err := p.object(m.OID)
			if err != nil {
				return false, err
			}
			return geom.RelateRegions(obj, q1) == r1 && geom.RelateRegions(obj, q2) == r2, nil
		})
	})
}

// QueryDirection finds all stored rectangles standing in the given
// direction relation to the reference MBR. Direction relations are
// defined on the MBRs themselves (the companion-paper machinery), so
// the filter step is exact and no geometric refinement runs; in
// NonCrisp mode the candidate set is widened by the usual 2-degree
// neighbourhoods and results become conservative (a superset).
func (p *Processor) QueryDirection(rel direction.Relation, refMBR geom.Rect) (Result, error) {
	if !rel.Valid() {
		return Result{}, fmt.Errorf("query: invalid direction relation %v", rel)
	}
	if !refMBR.Valid() {
		return Result{}, fmt.Errorf("query: degenerate reference MBR %v", refMBR)
	}
	cands := direction.Candidates(rel)
	if p.NonCrisp {
		cands = mbr.Expand2(cands)
	}
	matches, stats, err := p.collect(p.filterPreds(cands, refMBR))
	if err != nil {
		return Result{}, err
	}
	stats.DirectAccepts = stats.Candidates
	return Result{Matches: matches, Stats: stats}, nil
}

// LineStore resolves object ids to polylines for line-query
// refinement.
type LineStore map[uint64]geom.PolyLine

// QueryLine finds all stored lines standing in the given line-region
// relation to the reference region (the paper's Section 7 extension to
// linear data). The index is expected to hold the lines' MBRs under
// the same object ids as the store. Lines with degenerate (axis-
// aligned) MBRs cannot be stored in an MBR index directly; pad their
// rectangles and run the processor in NonCrisp mode.
func (p *Processor) QueryLine(rel geom.LineRegionRelation, ref geom.Region, lines LineStore) (Result, error) {
	if !rel.Valid() {
		return Result{}, fmt.Errorf("query: invalid line-region relation %v", rel)
	}
	if err := validRegion(ref); err != nil {
		return Result{}, err
	}
	cands := mbr.LineCandidates(rel)
	if p.NonCrisp {
		cands = mbr.Expand2(cands)
	}
	refMBR := ref.Bounds()
	matches, stats, err := p.collect(p.filterPreds(cands, refMBR))
	if err != nil {
		return Result{}, err
	}
	// Step 4: direct when the configuration admits only the queried
	// relation.
	return refined(matches, stats, func(stats *Stats, m Match) (bool, error) {
		poss := mbr.PossibleLineRelations(mbr.ConfigOf(m.Rect, refMBR))
		direct := !p.NonCrisp && len(poss) == 1 && poss[0] == rel
		return step4(stats, direct, func() (bool, error) {
			line, ok := lines[m.OID]
			if !ok {
				return false, fmt.Errorf("query: refinement needs line %d, not in store", m.OID)
			}
			got, _ := geom.RelateLineRegion(line, ref)
			return got == rel, nil
		})
	})
}

// QueryPoint finds all stored objects whose region contains the point
// (strictly inside, on the boundary, or both, per want). The filter
// step descends into nodes and accepts MBRs containing the point; the
// refinement classifies the point against the exact geometry. This is
// the point-data query of the paper's Section 7 seen from the region
// side ("which districts is this facility in?").
//
// want must contain geom.PointInside, geom.PointOnBoundary, or both.
func (p *Processor) QueryPoint(pt geom.Point, want ...geom.PointLocation) (Result, error) {
	if p.Objects == nil {
		return Result{}, fmt.Errorf("query: point queries need an ObjectStore for refinement")
	}
	accept := map[geom.PointLocation]bool{}
	for _, w := range want {
		if w != geom.PointInside && w != geom.PointOnBoundary {
			return Result{}, fmt.Errorf("query: point queries accept inside/boundary, got %v", w)
		}
		accept[w] = true
	}
	if len(accept) == 0 {
		accept[geom.PointInside] = true
		accept[geom.PointOnBoundary] = true
	}

	pred := func(r geom.Rect) bool { return r.ContainsPoint(pt) }
	matches, stats, err := p.collect(pred, pred)
	if err != nil {
		return Result{}, err
	}
	// Step 4: an MBR holding the point says nothing of the region, so
	// every candidate is located exactly.
	return refined(matches, stats, func(stats *Stats, m Match) (bool, error) {
		return step4(stats, false, func() (bool, error) {
			obj, err := p.object(m.OID)
			if err != nil {
				return false, err
			}
			return accept[obj.LocatePoint(pt)], nil
		})
	})
}

// JoinTopological finds all pairs (l, r) of objects from the two
// indexes with rel(l, r) for some rel in rels, by synchronized
// traversal of both trees with configuration-based pruning (the
// two-sided analogue of the paper's Table 2, derived per axis). It
// collects JoinStream; pair order is unspecified.
func JoinTopological(left, right index.Index, rels topo.Set, opts JoinOptions) (JoinResult, error) {
	var out JoinResult
	stats, err := JoinStream(context.Background(), left, right, rels, opts, func(p JoinPair) bool {
		out.Pairs = append(out.Pairs, p)
		return true
	})
	if err != nil {
		return JoinResult{}, err
	}
	out.Stats = stats
	return out, nil
}
