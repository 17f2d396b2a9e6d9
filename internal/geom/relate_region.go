package geom

import "mbrtopo/internal/topo"

// RelateRegions computes the topological relation between two regions
// that may be non-contiguous (the paper's Section 7 extension). For
// simple polygons it agrees with Relate (property-tested); for
// multi-polygons it additionally handles the phenomena contiguous
// regions cannot exhibit:
//
//   - a region may surround a "hole" formed by its components, so
//     ∂P ⊆ Q no longer implies P ⊆ Q: the test also requires that no
//     boundary piece of Q lies strictly inside P, and that one interior
//     sample of every P component lies in Q (the three conditions
//     together are exact: if some component's interior both met and
//     escaped Q, Q's boundary would cross that component's interior);
//   - a component of P may coincide exactly with a component of Q
//     while other components differ, which boundary flags alone cannot
//     see; interior samples detect the shared interior.
func RelateRegions(P, Q Region) topo.Relation {
	pc := classifyPieces(P.BoundarySegments(), Q, nil)
	qc := classifyPieces(Q.BoundarySegments(), P, nil)
	bb := pc.on || qc.on || pc.touch || qc.touch

	pSamples, pok := P.InteriorSamples()
	qSamples, qok := Q.InteriorSamples()
	// Sample classification (strict interior / membership in closure).
	pSampleIn, pAllInQ := samplesAgainst(pSamples, Q)
	qSampleIn, qAllInP := samplesAgainst(qSamples, P)
	if !pok || !qok {
		// Degenerate inputs; fall back to boundary flags only.
		pAllInQ, qAllInP = !pc.out, !qc.out
	}

	pSubQ := !pc.out && !qc.in && pAllInQ
	qSubP := !qc.out && !pc.in && qAllInP

	switch {
	case pSubQ && qSubP:
		return topo.Equal
	case pSubQ:
		if bb {
			return topo.CoveredBy
		}
		return topo.Inside
	case qSubP:
		if bb {
			return topo.Covers
		}
		return topo.Contains
	case pc.in || qc.in || pSampleIn || qSampleIn:
		return topo.Overlap
	case bb:
		return topo.Meet
	default:
		return topo.Disjoint
	}
}

// samplesAgainst classifies component interior samples against a
// region: anyInside reports a sample strictly inside, allIn reports
// every sample in the closed region.
func samplesAgainst(samples []Point, R Region) (anyInside, allIn bool) {
	allIn = true
	for _, s := range samples {
		switch R.LocatePoint(s) {
		case PointInside:
			anyInside = true
		case PointOutside:
			allIn = false
		}
	}
	return anyInside, allIn
}
