// Package direction implements projection-based direction relations
// between MBRs — the companion line of work the paper builds on
// ("Papadias, Theodoridis, Sellis (1994): The Retrieval of Direction
// Relations Using R-trees") and cites as the first application of its
// retrieval strategy. Direction relations are defined on the
// rectangles themselves, so the filter step is exact and needs no
// geometric refinement; retrieval reuses the same per-axis coverer
// propagation that drives the topological Table 2.
//
// The primary taxonomy coarsens each axis's thirteen interval
// relations into low (strictly/touching below the reference), mid
// (sharing interior) and high, yielding nine pairwise-disjoint,
// jointly-exhaustive tiles (NorthWest … SouthEast, SameLevel in the
// middle). Strict variants (entirely beyond the reference with a gap)
// are provided as refinements of the border tiles.
package direction

import (
	"fmt"

	"mbrtopo/internal/geom"
	"mbrtopo/internal/interval"
	"mbrtopo/internal/mbr"
)

// Relation is a direction relation of a primary MBR with respect to a
// reference MBR.
type Relation uint8

// The nine tile relations (pairwise disjoint, jointly exhaustive) and
// the four strict refinements.
const (
	// SouthWest: west in x, south in y, etc. "SameLevel" is the middle
	// tile: the projections share interior in both axes.
	SouthWest Relation = iota
	South
	SouthEast
	West
	SameLevel
	East
	NorthWest
	North
	NorthEast
	// Strict variants: separated from the reference by a gap in the
	// indicated axis (no touching).
	StrictNorth
	StrictSouth
	StrictEast
	StrictWest
)

// NumRelations counts the defined direction relations.
const NumRelations = 13

var names = [NumRelations]string{
	"southwest", "south", "southeast",
	"west", "samelevel", "east",
	"northwest", "north", "northeast",
	"strict_north", "strict_south", "strict_east", "strict_west",
}

func (r Relation) String() string {
	if int(r) < len(names) {
		return names[r]
	}
	return fmt.Sprintf("direction.Relation(%d)", uint8(r))
}

// Valid reports whether r is defined.
func (r Relation) Valid() bool { return r < NumRelations }

// All returns every defined relation.
func All() []Relation {
	out := make([]Relation, NumRelations)
	for i := range out {
		out[i] = Relation(i)
	}
	return out
}

// Per-axis coarsening sets.
var (
	lowAxis  = interval.NewSet(interval.Before, interval.Meets)
	highAxis = interval.NewSet(interval.MetBy, interval.After)
	midAxis  = interval.NewSet(
		interval.Overlaps, interval.FinishedBy, interval.Contains,
		interval.Starts, interval.Equal, interval.StartedBy,
		interval.During, interval.Finishes, interval.OverlappedBy,
	)
	strictLow  = interval.NewSet(interval.Before)
	strictHigh = interval.NewSet(interval.After)
	anyAxis    = interval.FullSet()
)

// axes returns the (x, y) interval-relation sets defining r.
func axes(r Relation) (x, y interval.Set) {
	switch r {
	case SouthWest:
		return lowAxis, lowAxis
	case South:
		return midAxis, lowAxis
	case SouthEast:
		return highAxis, lowAxis
	case West:
		return lowAxis, midAxis
	case SameLevel:
		return midAxis, midAxis
	case East:
		return highAxis, midAxis
	case NorthWest:
		return lowAxis, highAxis
	case North:
		return midAxis, highAxis
	case NorthEast:
		return highAxis, highAxis
	case StrictNorth:
		return anyAxis, strictHigh
	case StrictSouth:
		return anyAxis, strictLow
	case StrictEast:
		return strictHigh, anyAxis
	case StrictWest:
		return strictLow, anyAxis
	}
	panic("direction: invalid relation")
}

// Candidates returns the MBR configurations satisfying r — because
// direction relations are defined on the MBRs, this is both the filter
// row and the exact acceptance test.
func Candidates(r Relation) mbr.ConfigSet {
	if !r.Valid() {
		panic("direction.Candidates: invalid relation")
	}
	x, y := axes(r)
	return mbr.ProductSet(x, y)
}

// Tile classifies the primary MBR p against the reference q into one
// of the nine tiles.
func Tile(p, q geom.Rect) Relation {
	c := mbr.ConfigOf(p, q)
	col := coarse(c.X)
	row := coarse(c.Y)
	return Relation(row*3 + col)
}

// Holds reports whether relation r holds between the MBRs.
func Holds(r Relation, p, q geom.Rect) bool {
	return Candidates(r).Has(mbr.ConfigOf(p, q))
}

func coarse(r interval.Relation) uint8 {
	switch {
	case lowAxis.Has(r):
		return 0
	case midAxis.Has(r):
		return 1
	default:
		return 2
	}
}
