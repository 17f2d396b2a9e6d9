package geom

import (
	"math"
	"math/rand"
	"testing"

	"mbrtopo/internal/topo"
)

// fixtures returns named polygon pairs with their expected relation.
// Each of the eight mt2 relations appears in several geometric guises
// (edge contact, point contact, concave shapes, identical regions with
// different vertex rings).
func relateFixtures() []struct {
	name string
	p, q Polygon
	want topo.Relation
} {
	sq := R(0, 0, 4, 4).Polygon()       // reference square
	inner := R(1, 1, 2, 2).Polygon()    // strictly inside sq
	edgeIn := R(0, 1, 2, 3).Polygon()   // inside sq, shares part of left edge
	cornerIn := R(0, 0, 2, 2).Polygon() // inside sq, shares corner edges
	tri := Polygon{{1, 1}, {3, 1}, {2, 3}}
	L := Polygon{{0, 0}, {3, 0}, {3, 1}, {1, 1}, {1, 3}, {0, 3}}

	return []struct {
		name string
		p, q Polygon
		want topo.Relation
	}{
		{"squares far apart", sq, sq.Translate(Point{10, 0}), topo.Disjoint},
		{"diagonal separation", tri, tri.Translate(Point{5, 5}), topo.Disjoint},
		{"L and square in notch, apart", L.Translate(Point{0.5, 0}), R(2, 2, 2.9, 2.9).Polygon(), topo.Disjoint},

		{"edge contact", sq, sq.Translate(Point{4, 0}), topo.Meet},
		{"corner contact", sq, sq.Translate(Point{4, 4}), topo.Meet},
		{"partial edge contact", sq, R(4, 1, 6, 3).Polygon(), topo.Meet},
		{"triangle tip on edge", Polygon{{4, 2}, {6, 1}, {6, 3}}, sq, topo.Meet},
		{"square in L notch", Polygon{{1, 1}, {3, 1}, {3, 3}, {1, 3}}, L, topo.Meet},

		{"identical rings", sq, R(0, 0, 4, 4).Polygon(), topo.Equal},
		{"same region, rotated ring", sq, sq.Rotate(2), topo.Equal},
		{"same region, reversed ring", sq, sq.Reverse(), topo.Equal},
		{"same region, split edge", sq, Polygon{{0, 0}, {2, 0}, {4, 0}, {4, 4}, {0, 4}}, topo.Equal},

		{"classic partial overlap", sq, sq.Translate(Point{2, 2}), topo.Overlap},
		{"cross bars", R(0, 1, 6, 2).Polygon(), R(2, -1, 3, 4).Polygon(), topo.Overlap},
		{"triangle through edge", Polygon{{3, 1}, {6, 1}, {6, 3}}, sq, topo.Overlap},
		{"overlap with aligned MBRs", Polygon{{0, 0}, {4, 0}, {0, 4}}, Polygon{{4, 4}, {0, 4}, {1, 1}, {4, 0}}, topo.Overlap},

		{"strict containment", sq, inner, topo.Contains},
		{"contains triangle", sq, tri, topo.Contains},
		{"covers via edge", sq, edgeIn, topo.Covers},
		{"covers via corner", sq, cornerIn, topo.Covers},
		{"covers touching one point", sq, Polygon{{0, 2}, {2, 1}, {2, 3}}, topo.Covers},

		{"strictly inside", inner, sq, topo.Inside},
		{"inside concave host", R(0.2, 0.2, 0.8, 0.8).Polygon(), L, topo.Inside},
		{"covered_by via edge", edgeIn, sq, topo.CoveredBy},
		{"covered_by via corner", cornerIn, sq, topo.CoveredBy},
		{"covered_by touching one point", Polygon{{0, 2}, {2, 1}, {2, 3}}, sq, topo.CoveredBy},

		{"two triangles forming a square", Polygon{{0, 0}, {4, 0}, {4, 4}}, Polygon{{0, 0}, {4, 4}, {0, 4}}, topo.Meet},
	}
}

func TestRelateFixtures(t *testing.T) {
	for _, c := range relateFixtures() {
		if err := c.p.Validate(); err != nil {
			t.Fatalf("%s: bad fixture p: %v", c.name, err)
		}
		if err := c.q.Validate(); err != nil {
			t.Fatalf("%s: bad fixture q: %v", c.name, err)
		}
		if got := Relate(c.p, c.q); got != c.want {
			t.Errorf("%s: Relate = %v, want %v", c.name, got, c.want)
		}
		// Converse coherence.
		if got := Relate(c.q, c.p); got != c.want.Converse() {
			t.Errorf("%s (swapped): Relate = %v, want %v", c.name, got, c.want.Converse())
		}
	}
}

// TestRelateInvariantUnderRingRepresentation: the relation must not
// depend on vertex order, ring orientation or collinear vertex
// insertion.
func TestRelateInvariantUnderRingRepresentation(t *testing.T) {
	for _, c := range relateFixtures() {
		want := Relate(c.p, c.q)
		for k := 1; k < len(c.p); k++ {
			if got := Relate(c.p.Rotate(k), c.q); got != want {
				t.Errorf("%s: rotated ring changed relation: %v vs %v", c.name, got, want)
			}
		}
		if got := Relate(c.p.Reverse(), c.q.Reverse()); got != want {
			t.Errorf("%s: reversed rings changed relation: %v vs %v", c.name, got, want)
		}
	}
}

// gridRects enumerates rectangles with integer corners in [0,n]×[0,n].
func gridRects(n int) []Rect {
	var out []Rect
	for x0 := 0; x0 < n; x0++ {
		for x1 := x0 + 1; x1 <= n; x1++ {
			for y0 := 0; y0 < n; y0++ {
				for y1 := y0 + 1; y1 <= n; y1++ {
					out = append(out, R(float64(x0), float64(y0), float64(x1), float64(y1)))
				}
			}
		}
	}
	return out
}

// relateRectsDirect computes the relation between two rectangles seen
// as regions, straight from the interval definitions — an independent
// oracle for Relate on rectangle polygons.
func relateRectsDirect(p, q Rect) topo.Relation {
	type side int
	cmp := func(a, b float64) side {
		switch {
		case a < b:
			return -1
		case a > b:
			return 1
		default:
			return 0
		}
	}
	// Disjoint / meet on closed boxes.
	if !p.Intersects(q) {
		return topo.Disjoint
	}
	if !p.IntersectsInterior(q) {
		return topo.Meet
	}
	eq := p.Min == q.Min && p.Max == q.Max
	if eq {
		return topo.Equal
	}
	if p.ContainsRect(q) {
		if cmp(p.Min.X, q.Min.X) < 0 && cmp(p.Max.X, q.Max.X) > 0 &&
			cmp(p.Min.Y, q.Min.Y) < 0 && cmp(p.Max.Y, q.Max.Y) > 0 {
			return topo.Contains
		}
		return topo.Covers
	}
	if q.ContainsRect(p) {
		if cmp(q.Min.X, p.Min.X) < 0 && cmp(q.Max.X, p.Max.X) > 0 &&
			cmp(q.Min.Y, p.Min.Y) < 0 && cmp(q.Max.Y, p.Max.Y) > 0 {
			return topo.Inside
		}
		return topo.CoveredBy
	}
	return topo.Overlap
}

// TestRelateAgainstRectangleOracle checks Relate exhaustively against
// the rectangle oracle over thousands of rectangle pairs, covering all
// eight relations in every touching configuration the grid affords.
func TestRelateAgainstRectangleOracle(t *testing.T) {
	rects := gridRects(4)
	seen := map[topo.Relation]int{}
	for _, a := range rects {
		for _, b := range rects {
			want := relateRectsDirect(a, b)
			if got := Relate(a.Polygon(), b.Polygon()); got != want {
				t.Fatalf("Relate(%v,%v) = %v, oracle %v", a, b, got, want)
			}
			seen[want]++
		}
	}
	if len(seen) != topo.NumRelations {
		t.Fatalf("grid only realised %d relations: %v", len(seen), seen)
	}
}

// randomStar returns a random star-shaped simple polygon within the
// given bounds (its MBR is crisp by construction of Bounds).
func randomStar(rng *rand.Rand, c Point, rMax float64, n int) Polygon {
	pg := make(Polygon, n)
	for i := 0; i < n; i++ {
		ang := (float64(i) + 0.2 + 0.6*rng.Float64()) / float64(n) * 2 * math.Pi
		rad := rMax * (0.3 + 0.7*rng.Float64())
		pg[i] = Point{c.X + rad*math.Cos(ang), c.Y + rad*math.Sin(ang)}
	}
	return pg
}

// TestRelateConverseProperty: on random star polygons, Relate(p,q) must
// equal the converse of Relate(q,p); and self-relation is equal.
func TestRelateConverseProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 400; i++ {
		p := randomStar(rng, Point{rng.Float64() * 10, rng.Float64() * 10}, 1+rng.Float64()*4, 5+rng.Intn(8))
		q := randomStar(rng, Point{rng.Float64() * 10, rng.Float64() * 10}, 1+rng.Float64()*4, 5+rng.Intn(8))
		if p.Validate() != nil || q.Validate() != nil {
			continue
		}
		r1, r2 := Relate(p, q), Relate(q, p)
		if r1.Converse() != r2 {
			t.Fatalf("iter %d: Relate(p,q)=%v but Relate(q,p)=%v", i, r1, r2)
		}
		if self := Relate(p, p); self != topo.Equal {
			t.Fatalf("iter %d: Relate(p,p)=%v", i, self)
		}
	}
}

// TestCompositionSoundExhaustive validates the topo composition table
// against real geometry: for every triple of grid rectangles,
// rel(a,c) ∈ Compose(rel(a,b), rel(b,c)); and it checks that the grid
// witnesses every member of every composition entry (completeness of
// the table cannot be witnessed, but full coverage plus the algebraic
// checks in package topo pin the table down).
func TestCompositionSoundExhaustive(t *testing.T) {
	if testing.Short() {
		t.Skip("composition triple enumeration is slow")
	}
	// A 6-unit grid is the smallest that witnesses three-deep strict
	// nesting (inside ∘ inside). Precompute the pairwise relations so
	// the 85M-triple loop is pure table lookups.
	rects := gridRects(6)
	n := len(rects)
	rel := make([][]topo.Relation, n)
	for i := range rects {
		rel[i] = make([]topo.Relation, n)
		for j := range rects {
			rel[i][j] = relateRectsDirect(rects[i], rects[j])
		}
	}
	var witnessed [topo.NumRelations][topo.NumRelations]topo.Set
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			rab := rel[a][b]
			for c := 0; c < n; c++ {
				rac := rel[a][c]
				if !topo.Compose(rab, rel[b][c]).Has(rac) {
					t.Fatalf("composition unsound: %v∘%v must allow %v (a=%v b=%v c=%v)",
						rab, rel[b][c], rac, rects[a], rects[b], rects[c])
				}
				witnessed[rab][rel[b][c]] = witnessed[rab][rel[b][c]].Add(rac)
			}
		}
	}
	for _, r1 := range topo.All() {
		for _, r2 := range topo.All() {
			if missing := topo.Compose(r1, r2).Minus(witnessed[r1][r2]); !missing.IsEmpty() {
				t.Errorf("%v∘%v: members %v never witnessed by grid rectangles", r1, r2, missing)
			}
		}
	}
}
