package direction

import (
	"math/rand"
	"testing"

	"mbrtopo/internal/geom"
	"mbrtopo/internal/mbr"
)

// TestTilesPartition: the nine tiles are pairwise disjoint and cover
// all 169 configurations.
func TestTilesPartition(t *testing.T) {
	var union mbr.ConfigSet
	total := 0
	for _, r := range All()[:StrictNorth] { // the nine tiles precede the strict refinements
		c := Candidates(r)
		if !union.Intersect(c).IsEmpty() {
			t.Fatalf("tile %v overlaps earlier tiles", r)
		}
		union = union.Union(c)
		total += c.Len()
	}
	if !union.Equal(mbr.FullConfigSet()) || total != mbr.NumConfigs {
		t.Fatalf("tiles cover %d configurations", total)
	}
	// Expected sizes: corners 2×2, edges 2×9, center 9×9.
	if Candidates(NorthEast).Len() != 4 || Candidates(North).Len() != 18 || Candidates(SameLevel).Len() != 81 {
		t.Fatalf("tile sizes: NE=%d N=%d C=%d",
			Candidates(NorthEast).Len(), Candidates(North).Len(), Candidates(SameLevel).Len())
	}
}

// TestStrictRefinements: strict variants are subsets of the matching
// tiles' unions.
func TestStrictRefinements(t *testing.T) {
	northish := Candidates(NorthWest).Union(Candidates(North)).Union(Candidates(NorthEast))
	if !Candidates(StrictNorth).SubsetOf(northish) {
		t.Error("strict north outside the north row")
	}
	if Candidates(StrictNorth).Len() != 13 { // y=After, any x
		t.Errorf("strict north has %d configs", Candidates(StrictNorth).Len())
	}
	if !Candidates(StrictWest).SubsetOf(
		Candidates(SouthWest).Union(Candidates(West)).Union(Candidates(NorthWest))) {
		t.Error("strict west outside the west column")
	}
}

// TestTileMatchesPointSemantics: random rectangle pairs classified by
// Tile must satisfy the point-set meaning of the tile.
func TestTileMatchesPointSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	seen := map[Relation]int{}
	for i := 0; i < 50000; i++ {
		p := randRect(rng)
		q := randRect(rng)
		tile := Tile(p, q)
		seen[tile]++
		if !Holds(tile, p, q) {
			t.Fatalf("Tile/Holds inconsistent for %v vs %v", p, q)
		}
		switch tile {
		case NorthEast, North, NorthWest:
			if p.Min.Y < q.Max.Y {
				t.Fatalf("%v but p dips below q's top: %v vs %v", tile, p, q)
			}
		case SouthEast, South, SouthWest:
			if p.Max.Y > q.Min.Y {
				t.Fatalf("%v but p rises above q's bottom: %v vs %v", tile, p, q)
			}
		}
		switch tile {
		case NorthEast, East, SouthEast:
			if p.Min.X < q.Max.X {
				t.Fatalf("%v but p extends west of q's east edge", tile)
			}
		case NorthWest, West, SouthWest:
			if p.Max.X > q.Min.X {
				t.Fatalf("%v but p extends east of q's west edge", tile)
			}
		}
		// Strict variants imply a gap.
		if Holds(StrictNorth, p, q) && p.Min.Y <= q.Max.Y {
			t.Fatal("strict north without gap")
		}
	}
	for _, r := range All()[:StrictNorth] {
		if seen[r] == 0 {
			t.Errorf("tile %v never generated", r)
		}
	}
}

func TestNames(t *testing.T) {
	for _, r := range All() {
		if !r.Valid() || r.String() == "" {
			t.Errorf("relation %d broken", r)
		}
	}
	if Relation(99).Valid() || Relation(99).String() != "direction.Relation(99)" {
		t.Error("out-of-range handling broken")
	}
}

func randRect(rng *rand.Rand) geom.Rect {
	x := rng.Float64() * 50
	y := rng.Float64() * 50
	return geom.R(x, y, x+0.5+rng.Float64()*10, y+0.5+rng.Float64()*10)
}
