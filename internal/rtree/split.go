package rtree

import (
	"fmt"
	"math"
	"sort"

	"mbrtopo/internal/geom"
)

// splitNode distributes the entries of an overflowing node between the
// node and a fresh sibling at the same level, according to the
// configured algorithm. The node stays the one its parent entry points
// at; the sibling is newly allocated and returned uninstalled.
func (t *Tree) splitNode(n *node) (*node, error) {
	sibling := t.allocMutNode(n.level)
	var left, right []Entry
	switch t.opts.Split {
	case SplitQuadratic:
		left, right = quadraticSplit(n.entries, minEntries(t.st.cap))
	case SplitLinear:
		left, right = linearSplit(n.entries, minEntries(t.st.cap))
	case SplitRStar:
		left, right = rstarSplit(n.entries, minEntries(t.st.cap))
	default:
		return nil, fmt.Errorf("rtree: unknown split algorithm %v", t.opts.Split)
	}
	n.entries = left
	sibling.entries = right
	return sibling, nil
}

// quadraticSplit is Guttman's quadratic algorithm: PickSeeds selects
// the pair wasting the most area together; PickNext repeatedly assigns
// the entry with the greatest preference difference.
func quadraticSplit(entries []Entry, minFill int) (left, right []Entry) {
	// PickSeeds.
	s1, s2 := 0, 1
	worst := math.Inf(-1)
	for i := 0; i < len(entries); i++ {
		for j := i + 1; j < len(entries); j++ {
			d := entries[i].Rect.Union(entries[j].Rect).Area() -
				entries[i].Rect.Area() - entries[j].Rect.Area()
			if d > worst {
				worst, s1, s2 = d, i, j
			}
		}
	}
	left = append(left, entries[s1])
	right = append(right, entries[s2])
	lbox, rbox := entries[s1].Rect, entries[s2].Rect

	rest := make([]Entry, 0, len(entries)-2)
	for i, e := range entries {
		if i != s1 && i != s2 {
			rest = append(rest, e)
		}
	}
	for len(rest) > 0 {
		// If one group needs all remaining entries to reach minFill,
		// assign them without further tests.
		if len(left)+len(rest) <= minFill {
			left = append(left, rest...)
			break
		}
		if len(right)+len(rest) <= minFill {
			right = append(right, rest...)
			break
		}
		// PickNext: maximal |d1 − d2|.
		best, bestDiff := 0, -1.0
		var bestD1, bestD2 float64
		for i, e := range rest {
			d1 := lbox.Enlarge(e.Rect)
			d2 := rbox.Enlarge(e.Rect)
			if diff := math.Abs(d1 - d2); diff > bestDiff {
				best, bestDiff, bestD1, bestD2 = i, diff, d1, d2
			}
		}
		e := rest[best]
		rest = append(rest[:best], rest[best+1:]...)
		// Resolve ties by smaller area, then fewer entries.
		toLeft := bestD1 < bestD2
		if bestD1 == bestD2 {
			if lbox.Area() != rbox.Area() {
				toLeft = lbox.Area() < rbox.Area()
			} else {
				toLeft = len(left) <= len(right)
			}
		}
		if toLeft {
			left = append(left, e)
			lbox = lbox.Union(e.Rect)
		} else {
			right = append(right, e)
			rbox = rbox.Union(e.Rect)
		}
	}
	return left, right
}

// linearSplit is Guttman's linear algorithm: seeds with the greatest
// normalised separation, remaining entries assigned by least
// enlargement in input order.
func linearSplit(entries []Entry, minFill int) (left, right []Entry) {
	type extreme struct{ lowMax, highMin int }
	pick := func(lo func(Entry) float64, hi func(Entry) float64) (extreme, float64) {
		lowMax, highMin := 0, 0
		minLo, maxHi := math.Inf(1), math.Inf(-1)
		for i, e := range entries {
			if lo(e) < minLo {
				minLo = lo(e)
			}
			if hi(e) > maxHi {
				maxHi = hi(e)
			}
			if lo(e) > lo(entries[lowMax]) {
				lowMax = i
			}
			if hi(e) < hi(entries[highMin]) {
				highMin = i
			}
		}
		width := maxHi - minLo
		if width <= 0 {
			width = 1
		}
		sep := (lo(entries[lowMax]) - hi(entries[highMin])) / width
		return extreme{lowMax, highMin}, sep
	}
	ex, sx := pick(func(e Entry) float64 { return e.Rect.Min.X }, func(e Entry) float64 { return e.Rect.Max.X })
	ey, sy := pick(func(e Entry) float64 { return e.Rect.Min.Y }, func(e Entry) float64 { return e.Rect.Max.Y })
	seedA, seedB := ex.lowMax, ex.highMin
	if sy > sx {
		seedA, seedB = ey.lowMax, ey.highMin
	}
	if seedA == seedB {
		seedB = (seedA + 1) % len(entries)
	}
	left = append(left, entries[seedA])
	right = append(right, entries[seedB])
	lbox, rbox := entries[seedA].Rect, entries[seedB].Rect
	rest := make([]Entry, 0, len(entries)-2)
	for i, e := range entries {
		if i != seedA && i != seedB {
			rest = append(rest, e)
		}
	}
	for i, e := range rest {
		// If one group needs every remaining entry (including e) to
		// reach the minimum fill, assign without the enlargement test.
		remaining := len(rest) - i
		switch {
		case len(left)+remaining <= minFill:
			left = append(left, e)
			lbox = lbox.Union(e.Rect)
			continue
		case len(right)+remaining <= minFill:
			right = append(right, e)
			rbox = rbox.Union(e.Rect)
			continue
		}
		if lbox.Enlarge(e.Rect) <= rbox.Enlarge(e.Rect) {
			left = append(left, e)
			lbox = lbox.Union(e.Rect)
		} else {
			right = append(right, e)
			rbox = rbox.Union(e.Rect)
		}
	}
	return left, right
}

// rstarSplit is the R*-tree split: pick the axis with minimal total
// margin over all valid distributions of the entries sorted by lower
// and upper value, then the distribution with minimal overlap (ties by
// minimal total area).
func rstarSplit(entries []Entry, minFill int) (left, right []Entry) {
	n := len(entries)
	type distribution struct {
		sorted []Entry
		k      int // left group takes sorted[:k]
	}
	axisDistributions := func(axis int) ([]distribution, float64) {
		bySide := func(side int) []Entry {
			s := make([]Entry, n)
			copy(s, entries)
			sort.SliceStable(s, func(i, j int) bool {
				a, b := s[i].Rect, s[j].Rect
				var va, vb float64
				switch {
				case axis == 0 && side == 0:
					va, vb = a.Min.X, b.Min.X
				case axis == 0 && side == 1:
					va, vb = a.Max.X, b.Max.X
				case axis == 1 && side == 0:
					va, vb = a.Min.Y, b.Min.Y
				default:
					va, vb = a.Max.Y, b.Max.Y
				}
				return va < vb
			})
			return s
		}
		var dists []distribution
		marginSum := 0.0
		for side := 0; side < 2; side++ {
			s := bySide(side)
			for k := minFill; k <= n-minFill; k++ {
				d := distribution{sorted: s, k: k}
				dists = append(dists, d)
				marginSum += mbrOf(s[:k]).Margin() + mbrOf(s[k:]).Margin()
			}
		}
		return dists, marginSum
	}
	distsX, marginX := axisDistributions(0)
	distsY, marginY := axisDistributions(1)
	dists := distsX
	if marginY < marginX {
		dists = distsY
	}
	best := -1
	bestOverlap, bestArea := math.Inf(1), math.Inf(1)
	for i, d := range dists {
		lb, rb := mbrOf(d.sorted[:d.k]), mbrOf(d.sorted[d.k:])
		overlap := lb.OverlapArea(rb)
		area := lb.Area() + rb.Area()
		if overlap < bestOverlap || (overlap == bestOverlap && area < bestArea) {
			best, bestOverlap, bestArea = i, overlap, area
		}
	}
	d := dists[best]
	left = append([]Entry(nil), d.sorted[:d.k]...)
	right = append([]Entry(nil), d.sorted[d.k:]...)
	return left, right
}

func mbrOf(entries []Entry) geom.Rect {
	r := entries[0].Rect
	for _, e := range entries[1:] {
		r = r.Union(e.Rect)
	}
	return r
}
