package shard

import (
	"context"
	"math"
	"testing"

	"mbrtopo/internal/geom"
	"mbrtopo/internal/index"
	"mbrtopo/internal/mbr"
	"mbrtopo/internal/query"
	"mbrtopo/internal/topo"
)

// stretchedTile is a tile that reports bounds wider than its members'
// MBR — what a real tile looks like once it also holds other objects.
type stretchedTile struct {
	index.Index
	bounds geom.Rect
}

func (t stretchedTile) Bounds() (geom.Rect, bool) { return t.bounds, true }

// FuzzTilePrune attacks the router's tile elimination on the path
// queries take: Processor.Stream hands Sharded.SearchCtx the node
// predicate of Processor.filterPreds — domination pre-test, then the
// Table 2 propagation probe (the partition-region test for an R+
// tile) — and the router applies it to each tile's bounds. If a member
// inside those bounds stands in a candidate configuration for the
// requested relation set (i.e. a single index would retrieve it), the
// query must return it; eliminating its tile would silently lose an
// answer, so pruning has to be conservative for every geometry the
// fuzzer can draw. A member that is no candidate must not come back
// either.
func FuzzTilePrune(f *testing.F) {
	f.Add(uint8(1), 0.0, 0.0, 10.0, 10.0, 5.0, 5.0, 20.0, 20.0, 30.0, 30.0)
	f.Add(uint8(0xFF), 1.0, 1.0, 2.0, 2.0, 1.0, 1.0, 2.0, 2.0, 0.0, 0.0)
	f.Add(uint8(1<<topo.Disjoint), -5.0, -5.0, -1.0, -1.0, 0.0, 0.0, 1.0, 1.0, 100.0, 100.0)
	f.Add(uint8(1<<topo.Meet|1<<topo.Overlap), 0.0, 0.0, 4.0, 4.0, 4.0, 0.0, 8.0, 4.0, 6.0, 6.0)
	f.Add(uint8(1<<topo.Equal), 3.0, 3.0, 7.0, 7.0, 3.0, 3.0, 7.0, 7.0, 9.0, 9.0)

	f.Fuzz(func(t *testing.T, relBits uint8,
		mx1, my1, mx2, my2 float64, // member rectangle
		rx1, ry1, rx2, ry2 float64, // reference rectangle
		ex, ey float64) { // extra point stretching the tile bounds

		for _, v := range []float64{mx1, my1, mx2, my2, rx1, ry1, rx2, ry2, ex, ey} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Skip("non-finite coordinate")
			}
		}
		rels := topo.Set(relBits)
		if rels.IsEmpty() {
			t.Skip("empty relation set")
		}
		member := geom.R(math.Min(mx1, mx2), math.Min(my1, my2), math.Max(mx1, mx2), math.Max(my1, my2))
		ref := geom.R(math.Min(rx1, rx2), math.Min(ry1, ry2), math.Max(rx1, rx2), math.Max(ry1, ry2))
		if !member.Valid() || !ref.Valid() {
			t.Skip("degenerate rectangle")
		}
		// The tile's bounds cover the member plus whatever else the tile
		// holds, modelled by an extra point.
		bounds := member.Union(geom.R(ex, ey, ex, ey))

		want := mbr.CandidatesSet(rels).Has(mbr.ConfigOf(member, ref))
		for _, kind := range []index.Kind{index.KindRTree, index.KindRPlus} {
			tile, err := index.New(kind)
			if err != nil {
				t.Fatal(err)
			}
			if err := tile.Insert(member, 1); err != nil {
				t.Fatalf("%v: Insert(%v): %v", kind, member, err)
			}
			proc := &query.Processor{Idx: New(stretchedTile{tile, bounds})}
			got := false
			if _, err := proc.Stream(context.Background(), rels, ref, 0, func(query.Match) bool {
				got = true
				return true
			}); err != nil {
				t.Fatalf("%v: Stream: %v", kind, err)
			}
			if got != want {
				t.Fatalf("%v tile: member retrieved = %v, single-index oracle = %v:\n rels=%v member=%v ref=%v bounds=%v config=%v",
					kind, got, want, rels, member, ref, bounds, mbr.ConfigOf(member, ref))
			}
		}
	})
}
