package geom

import (
	"math/rand"
	"testing"

	"mbrtopo/internal/topo"
)

// TestRelateRegionsAgreesWithRelate: on simple polygons the Region
// path must agree with the specialised polygon path, across all
// fixtures and the rectangle-pair oracle.
func TestRelateRegionsAgreesWithRelate(t *testing.T) {
	for _, c := range relateFixtures() {
		if got, want := RelateRegions(c.p, c.q), Relate(c.p, c.q); got != want {
			t.Errorf("%s: RelateRegions = %v, Relate = %v", c.name, got, want)
		}
	}
	rects := gridRects(4)
	for _, a := range rects {
		for _, b := range rects {
			if got, want := RelateRegions(a.Polygon(), b.Polygon()), relateRectsDirect(a, b); got != want {
				t.Fatalf("RelateRegions(%v,%v) = %v, oracle %v", a, b, got, want)
			}
		}
	}
}

// ring4 builds a square ring out of four rectangles around the hole
// [2,4]×[2,4], as a MultiPolygon (outer bounds [1,1]–[5,5]).
func ring4() MultiPolygon {
	return MultiPolygon{
		R(1, 1, 5, 2).Polygon(), // bottom
		R(1, 4, 5, 5).Polygon(), // top
		R(1, 2, 2, 4).Polygon(), // left
		R(4, 2, 5, 4).Polygon(), // right
	}
}

func TestMultiPolygonBasics(t *testing.T) {
	ring := ring4()
	if err := ring.Validate(); err != nil {
		t.Fatalf("ring should validate: %v", err)
	}
	if got := ring.Bounds(); got != R(1, 1, 5, 5) {
		t.Fatalf("bounds: %v", got)
	}
	if got := ring.Area(); got != 12 {
		t.Fatalf("area: %v", got)
	}
	if got := ring.LocatePoint(Point{3, 3}); got != PointOutside {
		t.Fatalf("hole center should be outside the ring, got %v", got)
	}
	if got := ring.LocatePoint(Point{1.5, 1.5}); got != PointInside {
		t.Fatalf("bottom bar interior: %v", got)
	}
	if got := ring.LocatePoint(Point{2, 3}); got != PointOnBoundary {
		t.Fatalf("inner wall: %v", got)
	}
	// A point on the seam between the bottom bar and the left wall is
	// interior to the union.
	if got := ring.LocatePoint(Point{1.5, 2}); got != PointInside {
		t.Fatalf("seam point should be interior to the union, got %v", got)
	}
	samples, ok := ring.InteriorSamples()
	if !ok || len(samples) != 4 {
		t.Fatalf("samples: %v %v", samples, ok)
	}
	for _, s := range samples {
		if ring.LocatePoint(s) != PointInside {
			t.Fatalf("sample %v not interior", s)
		}
	}
	// The effective boundary dissolves the three seams... the ring has
	// four seams (one per corner junction); every dissolved piece must
	// be strictly interior to the union, and every kept piece on the
	// true union boundary.
	for _, seg := range ring.BoundarySegments() {
		if got := ring.LocatePoint(seg.Midpoint()); got != PointOnBoundary {
			t.Fatalf("kept boundary piece %v has midpoint %v", seg, got)
		}
	}
	// Overlapping components must not validate.
	bad := MultiPolygon{R(0, 0, 2, 2).Polygon(), R(1, 1, 3, 3).Polygon()}
	if err := bad.Validate(); err == nil {
		t.Fatal("overlapping components validated")
	}
	if err := (MultiPolygon{}).Validate(); err == nil {
		t.Fatal("empty multipolygon validated")
	}
	if got := ring.Translate(Point{10, 0}).Bounds(); got != R(11, 1, 15, 5) {
		t.Fatalf("translate: %v", got)
	}
}

// TestRelateRegionsHoleCases: the configurations that distinguish
// non-contiguous regions from contiguous ones.
func TestRelateRegionsHoleCases(t *testing.T) {
	ring := ring4()
	cases := []struct {
		name string
		p, q Region
		want topo.Relation
	}{
		// A block floating in the ring's hole without contact.
		{"island in hole", R(2.5, 2.5, 3.5, 3.5).Polygon(), ring, topo.Disjoint},
		// A block filling the hole exactly: touches all inner walls but
		// shares no interior — meet, despite ∂P ⊆ Q.
		{"block fills hole", R(2, 2, 4, 4).Polygon(), ring, topo.Meet},
		// A block covering the hole and half the ring: overlap.
		{"block over hole and ring", R(1.5, 1.5, 4.5, 4.5).Polygon(), ring, topo.Overlap},
		// The ring inside a larger region.
		{"ring inside big region", ring, R(0, 0, 6, 6).Polygon(), topo.Inside},
		// The ring covered by a region sharing its outer boundary.
		{"ring covered by square", ring, R(1, 1, 5, 5).Polygon(), topo.CoveredBy},
		// Identical multi regions with different component order.
		{"equal rings", ring, MultiPolygon{ring[2], ring[0], ring[3], ring[1]}, topo.Equal},
		// Same set, one side expressed as a single polygon ring walk is
		// impossible for a square ring; instead: two-component region
		// equal to the union of two rectangles given as one component
		// each in different cuts.
		{"equal across different cuts",
			MultiPolygon{R(0, 0, 2, 1).Polygon(), R(0, 1, 2, 2).Polygon()},
			MultiPolygon{R(0, 0, 1, 2).Polygon(), R(1, 0, 2, 2).Polygon()},
			topo.Equal},
		// One shared component plus an extra: covered_by.
		{"component subset",
			MultiPolygon{R(0, 0, 1, 1).Polygon()},
			MultiPolygon{R(0, 0, 1, 1).Polygon(), R(5, 5, 6, 6).Polygon()},
			topo.CoveredBy},
		// Shared component with disjoint extras on both sides: overlap.
		{"shared component, extras",
			MultiPolygon{R(0, 0, 1, 1).Polygon(), R(10, 0, 11, 1).Polygon()},
			MultiPolygon{R(0, 0, 1, 1).Polygon(), R(20, 0, 21, 1).Polygon()},
			topo.Overlap},
		// Two islands of P inside one component of Q.
		{"archipelago inside",
			MultiPolygon{R(1, 1, 2, 2).Polygon(), R(3, 3, 4, 4).Polygon()},
			R(0, 0, 5, 5).Polygon(),
			topo.Inside},
		// Two islands, one touching the host's border.
		{"archipelago covered_by",
			MultiPolygon{R(0, 1, 2, 2).Polygon(), R(3, 3, 4, 4).Polygon()},
			R(0, 0, 5, 5).Polygon(),
			topo.CoveredBy},
		// Host contains one island, other island outside: overlap.
		{"partially escaped archipelago",
			MultiPolygon{R(1, 1, 2, 2).Polygon(), R(9, 9, 10, 10).Polygon()},
			R(0, 0, 5, 5).Polygon(),
			topo.Overlap},
		// Components meeting the host's boundary from outside.
		{"islands meeting host",
			MultiPolygon{R(5, 0, 6, 1).Polygon(), R(5, 3, 6, 4).Polygon()},
			R(0, 0, 5, 5).Polygon(),
			topo.Meet},
	}
	for _, c := range cases {
		if got := RelateRegions(c.p, c.q); got != c.want {
			t.Errorf("%s: RelateRegions = %v, want %v", c.name, got, c.want)
		}
		if got := RelateRegions(c.q, c.p); got != c.want.Converse() {
			t.Errorf("%s (swapped): %v, want %v", c.name, got, c.want.Converse())
		}
	}
}

// TestRelateRegionsConverseProperty on random multi-part regions.
func TestRelateRegionsConverseProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	randMulti := func() MultiPolygon {
		n := 1 + rng.Intn(3)
		var mp MultiPolygon
		for len(mp) < n {
			c := Point{X: rng.Float64() * 20, Y: rng.Float64() * 20}
			cand := randomStar(rng, c, 0.5+rng.Float64()*2, 4+rng.Intn(6))
			if cand.Validate() != nil {
				continue
			}
			ok := true
			for _, prev := range mp {
				if r := RelateRegions(cand, prev); r != topo.Disjoint && r != topo.Meet {
					ok = false
					break
				}
			}
			if ok {
				mp = append(mp, cand)
			}
		}
		return mp
	}
	seen := map[topo.Relation]int{}
	for i := 0; i < 150; i++ {
		p, q := randMulti(), randMulti()
		if p.Validate() != nil || q.Validate() != nil {
			continue
		}
		r1, r2 := RelateRegions(p, q), RelateRegions(q, p)
		if r1.Converse() != r2 {
			t.Fatalf("iter %d: %v vs %v", i, r1, r2)
		}
		if self := RelateRegions(p, p); self != topo.Equal {
			t.Fatalf("iter %d: self-relation %v", i, self)
		}
		seen[r1]++
	}
	if seen[topo.Disjoint] == 0 || seen[topo.Overlap] == 0 {
		t.Fatalf("poor relation coverage: %v", seen)
	}
}

// TestCompositionSoundMultiPart is TestCompositionSoundExhaustive over
// regions of several components, the references and stored objects
// whose conjunctions Table 4 (the composition's complement) may answer
// empty: on the 3×3 lattice, every grid rectangle, every two-part union
// of grid rectangles and the ring around the middle cell, for every
// triple, rel(a,c) ∈ Compose(rel(a,b), rel(b,c)).
func TestCompositionSoundMultiPart(t *testing.T) {
	if testing.Short() {
		t.Skip("composition triple enumeration is slow")
	}
	rects := gridRects(3)
	var regions []Region
	for i, a := range rects {
		regions = append(regions, a.Polygon())
		for _, b := range rects[i+1:] {
			if r := relateRectsDirect(a, b); r == topo.Disjoint || r == topo.Meet {
				regions = append(regions, MultiPolygon{a.Polygon(), b.Polygon()})
			}
		}
	}
	regions = append(regions, MultiPolygon{R(0, 0, 3, 1).Polygon(), R(0, 2, 3, 3).Polygon(), R(0, 1, 1, 2).Polygon(), R(2, 1, 3, 2).Polygon()})
	n := len(regions)
	rel := make([][]topo.Relation, n)
	for i := range regions {
		rel[i] = make([]topo.Relation, n)
		for j := range i + 1 {
			rel[i][j] = RelateRegions(regions[i], regions[j])
			rel[j][i] = rel[i][j].Converse()
		}
	}
	var compose [topo.NumRelations][topo.NumRelations]topo.Set
	for _, r1 := range topo.All() {
		for _, r2 := range topo.All() {
			compose[r1][r2] = topo.Compose(r1, r2)
		}
	}
	for a := range n {
		for b := range n {
			for c := range n {
				if !compose[rel[a][b]][rel[b][c]].Has(rel[a][c]) {
					t.Fatalf("composition unsound: %v∘%v must allow %v (a=%v b=%v c=%v)",
						rel[a][b], rel[b][c], rel[a][c], regions[a], regions[b], regions[c])
				}
			}
		}
	}
}
