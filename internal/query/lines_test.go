package query

import (
	"testing"

	"mbrtopo/internal/geom"
	"mbrtopo/internal/index"
)

// TestQueryLinePaddedDegenerate: an axis-aligned road has a degenerate
// MBR; padding it and querying in NonCrisp mode must still find it.
func TestQueryLinePaddedDegenerate(t *testing.T) {
	road := geom.PolyLine{{X: 10, Y: 20}, {X: 40, Y: 20}} // horizontal
	ref := geom.R(0, 0, 50, 50).Polygon()
	if got, _ := geom.RelateLineRegion(road, ref); got != geom.LRWithin {
		t.Fatalf("fixture: %v", got)
	}
	idx, err := index.NewWithPageSize(index.KindRTree, 512)
	if err != nil {
		t.Fatal(err)
	}
	padded := road.Bounds().Grow(1e-9)
	if err := idx.Insert(padded, 1); err != nil {
		t.Fatal(err)
	}
	lines := LineStore{1: road}
	crisp := &Processor{Idx: idx}
	res, err := crisp.QueryLine(geom.LRWithin, ref, lines)
	if err != nil {
		t.Fatal(err)
	}
	// Padding keeps R9_9 here (pad ≪ distances), so the crisp filter
	// already finds it; the tolerant mode must too, with refinement.
	tolerant := &Processor{Idx: idx, NonCrisp: true}
	res2, err := tolerant.QueryLine(geom.LRWithin, ref, lines)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) != 1 || len(res2.Matches) != 1 {
		t.Fatalf("crisp %d, tolerant %d matches", len(res.Matches), len(res2.Matches))
	}
	if res2.Stats.DirectAccepts != 0 {
		t.Fatal("tolerant mode must refine everything")
	}
}

func TestQueryLineErrors(t *testing.T) {
	proc := &Processor{Idx: buildScenario(t, 2, 20).indexes["R-tree"]}
	if _, err := proc.QueryLine(geom.LineRegionRelation(99), geom.R(0, 0, 1, 1).Polygon(), nil); err == nil {
		t.Error("invalid relation accepted")
	}
	if _, err := proc.QueryLine(geom.LRCross, nil, nil); err == nil {
		t.Error("nil reference accepted")
	}
	if _, err := proc.QueryLine(geom.LRCross, geom.Polygon{{X: 0, Y: 0}, {X: 1, Y: 0}}, nil); err == nil {
		t.Error("invalid reference accepted")
	}
	if _, err := proc.QueryLine(geom.LRDisjoint, geom.R(0, 0, 200, 200).Polygon(), nil); err == nil {
		t.Error("missing line in store not reported")
	}
}
