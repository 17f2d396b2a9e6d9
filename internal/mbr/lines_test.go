package mbr_test

import (
	"math/rand"
	"testing"

	"mbrtopo/internal/geom"
	"mbrtopo/internal/mbr"
	"mbrtopo/internal/workload"
)

func TestLineCandidateCardinalities(t *testing.T) {
	want := map[geom.LineRegionRelation]int{
		geom.LRDisjoint:   138,
		geom.LRTouch:      113,
		geom.LRCross:      81,
		geom.LRWithin:     1,
		geom.LRCoveredBy:  16,
		geom.LROnBoundary: 16,
	}
	for r, n := range want {
		if got := mbr.LineCandidates(r, false).Len(); got != n {
			t.Errorf("|%v| = %d, want %d", r, got, n)
		}
	}
	var union mbr.ConfigSet
	for _, r := range geom.AllLineRegionRelations() {
		union = union.Union(mbr.LineCandidates(r, false))
	}
	if !union.Equal(mbr.FullConfigSet()) {
		t.Errorf("line rows miss configurations: %v", mbr.FullConfigSet().Minus(union))
	}
}

// TestLineCandidatesSoundOnGeometry: for random polylines against
// random regions, the MBR configuration must lie in the row of the
// exact relation. Rare relations use dedicated templates.
func TestLineCandidatesSoundOnGeometry(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	region := workload.PolygonInRect(rng, geom.R(10, 10, 30, 26), 9)
	regionRect := geom.R(10, 10, 30, 26)
	rPoly := regionRect.Polygon()

	check := func(pl geom.PolyLine, R geom.Region) {
		t.Helper()
		if pl.Validate() != nil {
			return
		}
		b := pl.Bounds()
		if !b.Valid() {
			return // axis-aligned line: degenerate MBR, out of scope here
		}
		rel, _ := geom.RelateLineRegion(pl, R)
		cfg := mbr.ConfigOf(b, R.Bounds())
		if !mbr.LineCandidates(rel, false).Has(cfg) {
			t.Fatalf("line %v relation %v realised config %v outside its row", pl, rel, cfg)
		}
	}

	// Random lines over a star-shaped region.
	for i := 0; i < 4000; i++ {
		n := 2 + rng.Intn(4)
		pl := make(geom.PolyLine, n)
		for j := range pl {
			pl[j] = geom.Point{X: rng.Float64()*40 - 1, Y: rng.Float64()*40 - 1}
		}
		check(pl, region)
	}
	// Templates for boundary-hugging relations against the rectangle
	// region (exact coordinates).
	check(geom.PolyLine{{X: 10, Y: 12}, {X: 10.5, Y: 20}, {X: 10, Y: 24}}, rPoly) // covered_by-ish
	check(geom.PolyLine{{X: 10, Y: 12}, {X: 10, Y: 20}, {X: 12, Y: 10}}, rPoly)   // along edge then chord
	check(geom.PolyLine{{X: 12, Y: 10}, {X: 20, Y: 10.0}, {X: 28, Y: 11}}, rPoly) // edge ride + interior
	check(geom.PolyLine{{X: 5, Y: 5}, {X: 10, Y: 12.5}, {X: 4, Y: 20}}, rPoly)    // touch from outside
	check(geom.PolyLine{{X: 12, Y: 12}, {X: 20, Y: 14}, {X: 26, Y: 22}}, rPoly)   // within
	check(geom.PolyLine{{X: 5, Y: 18}, {X: 35, Y: 19}}, rPoly)                    // cross through
	check(geom.PolyLine{{X: 10, Y: 11}, {X: 10.0001, Y: 25}}, rPoly)              // near-degenerate by the wall
	check(geom.PolyLine{{X: 30, Y: 28}, {X: 30, Y: 8}, {X: 25, Y: 5}}, rPoly)     // touch along an edge, taller than the region
}

// TestLineWithinStrictNesting: a line strictly inside a region has
// strictly nested MBRs — the analogue of the region inside row.
func TestLineWithinStrictNesting(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	region := geom.R(0, 0, 20, 20).Polygon()
	for i := 0; i < 500; i++ {
		pl := geom.PolyLine{
			{X: 1 + rng.Float64()*18, Y: 1 + rng.Float64()*18},
			{X: 1 + rng.Float64()*18, Y: 1 + rng.Float64()*18},
			{X: 1 + rng.Float64()*18, Y: 1 + rng.Float64()*18},
		}
		if pl.Validate() != nil || !pl.Bounds().Valid() {
			continue
		}
		rel, _ := geom.RelateLineRegion(pl, region)
		if rel != geom.LRWithin {
			continue
		}
		cfg := mbr.ConfigOf(pl.Bounds(), region.Bounds())
		if cfg.String() != "R9_9" {
			t.Fatalf("within line has config %v", cfg)
		}
	}
}

func TestPossibleLineRelations(t *testing.T) {
	// Equal MBRs: the line may touch, cross, be covered by or run along
	// the boundary — not be strictly within, not be disjoint.
	c := mbr.Config{X: 7, Y: 7}
	got := mbr.PossibleLineRelations(c, false)
	want := map[geom.LineRegionRelation]bool{
		geom.LRTouch: true, geom.LRCross: true,
		geom.LRCoveredBy: true, geom.LROnBoundary: true,
	}
	if len(got) != len(want) {
		t.Fatalf("PossibleLineRelations(R7_7) = %v", got)
	}
	for _, r := range got {
		if !want[r] {
			t.Fatalf("unexpected relation %v for R7_7", r)
		}
	}
}
