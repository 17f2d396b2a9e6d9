package mbr_test

import (
	"math/rand"
	"testing"

	"mbrtopo/internal/geom"
	"mbrtopo/internal/mbr"
	"mbrtopo/internal/topo"
	"mbrtopo/internal/workload"
)

// TestTable1SoundOnRegions is the central property test of the filter
// theory: for random pairs of contiguous regions in every relation r,
// the configuration of their crisp MBRs must lie in the Table 1 row for
// r. A violation would mean the filter step can miss answers.
func TestTable1SoundOnRegions(t *testing.T) {
	rng := rand.New(rand.NewSource(2026))
	const perRelation = 300
	for _, r := range topo.All() {
		seen := map[mbr.Config]int{}
		for i := 0; i < perRelation; i++ {
			p, q := workload.PairInRelation(rng, r)
			c := mbr.ConfigOf(p.Bounds(), q.Bounds())
			if !mbr.Candidates(r).Has(c) {
				t.Fatalf("relation %v realised config %v outside its Table 1 row\np=%v\nq=%v",
					r, c, p, q)
			}
			seen[c]++
		}
		if len(seen) == 0 {
			t.Fatalf("%v: no pairs generated", r)
		}
	}
}

// TestPossibleRelationsSound: dually, the exact relation of any two
// regions must be a member of mbr.PossibleRelations of their MBR config.
func TestPossibleRelationsSound(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, r := range topo.All() {
		for i := 0; i < 150; i++ {
			p, q := workload.PairInRelation(rng, r)
			c := mbr.ConfigOf(p.Bounds(), q.Bounds())
			if !mbr.PossibleRelations(c).Has(r) {
				t.Fatalf("config %v: PossibleRelations %v misses actual relation %v",
					c, mbr.PossibleRelations(c), r)
			}
		}
	}
}

// TestMeetInCrossingConfig exercises the boundary of the forced-overlap
// theorem from two sides.
//
// First, two regions that merely meet although their MBRs stand in the
// crossing configuration R4_6 (x-projection finished-by, y-projection
// starts): a triangle under the diagonal of its box and a quadrilateral
// above it sharing the hypotenuse. Table 1's meet row must include such
// crossing configurations — only the 14 forced-overlap ones may be cut.
//
// Second, a bar-and-corridor construction in configuration R4_9, where
// the y-projection is *strictly* during: there the theorem forces the
// regions to overlap, so R4_9 must be excluded from the meet row and
// (being overlap-only) must need no refinement.
func TestMeetInCrossingConfig(t *testing.T) {
	// p' = [0,4]×[0,2] (touching q's right edge), q' = [1,4]×[0,3].
	p := geom.Polygon{{X: 0, Y: 0}, {X: 4, Y: 0}, {X: 0, Y: 2}}
	q := geom.Polygon{{X: 4, Y: 0}, {X: 4, Y: 3}, {X: 1, Y: 3}, {X: 1, Y: 1.5}}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := q.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := geom.Relate(p, q); got != topo.Meet {
		t.Fatalf("hypotenuse construction relates as %v, want meet", got)
	}
	c := mbr.ConfigOf(p.Bounds(), q.Bounds())
	if c.String() != "R4_6" {
		t.Fatalf("hypotenuse construction has config %v, want R4_6", c)
	}
	if !mbr.Candidates(topo.Meet).Has(c) {
		t.Fatal("meet row must include the touching crossing R4_6")
	}
	if mbr.Candidates(topo.Disjoint).Has(c) {
		t.Fatal("disjoint row must exclude crossing configurations")
	}

	// The strict-in-y crossing R4_9: attempting the same dodge-and-touch
	// construction necessarily yields overlap.
	bar := geom.Polygon{
		{X: 0, Y: 2.4}, {X: 3.6, Y: 2.4}, {X: 3.6, Y: 2.49}, {X: 4, Y: 2.49},
		{X: 4, Y: 2.51}, {X: 3.6, Y: 2.51}, {X: 3.6, Y: 2.6}, {X: 0, Y: 2.6},
	}
	corridor := geom.Polygon{
		{X: 3.5, Y: 0}, {X: 3.6, Y: 0}, {X: 3.6, Y: 3.9}, {X: 4, Y: 3.9},
		{X: 4, Y: 4.1}, {X: 3.6, Y: 4.1}, {X: 3.6, Y: 5}, {X: 3.5, Y: 5},
	}
	cc := mbr.ConfigOf(bar.Bounds(), corridor.Bounds())
	if cc.String() != "R4_9" {
		t.Fatalf("bar/corridor config = %v, want R4_9", cc)
	}
	if got := geom.Relate(bar, corridor); got != topo.Overlap {
		t.Fatalf("bar/corridor relates as %v; the forced-overlap theorem says overlap", got)
	}
	if mbr.Candidates(topo.Meet).Has(cc) {
		t.Fatal("meet row must exclude the forced-overlap configuration R4_9")
	}
	if mbr.RefinementNeeded(cc, topo.Overlap) {
		t.Fatal("R4_9 should be refinement-free for overlap queries")
	}
}

// TestMeetWitnessInUCavity: meeting regions whose MBRs are strictly
// nested (configuration R9_9): a block inside the cavity of a U-shaped
// host, touching the inner wall. This keeps R9_9 in the meet row —
// which in turn forces Table 2 to follow inside-class nodes for meet
// queries.
func TestMeetWitnessInUCavity(t *testing.T) {
	u := geom.Polygon{
		{X: 0, Y: 0}, {X: 6, Y: 0}, {X: 6, Y: 6}, {X: 4, Y: 6},
		{X: 4, Y: 2}, {X: 2, Y: 2}, {X: 2, Y: 6}, {X: 0, Y: 6},
	}
	block := geom.R(2.5, 2, 3.5, 3).Polygon() // rests on the cavity floor
	if got := geom.Relate(block, u); got != topo.Meet {
		t.Fatalf("cavity block relates as %v, want meet", got)
	}
	c := mbr.ConfigOf(block.Bounds(), u.Bounds())
	if c.String() != "R9_9" {
		t.Fatalf("cavity block config = %v, want R9_9", c)
	}
	if !mbr.Candidates(topo.Meet).Has(c) {
		t.Fatal("meet row must include R9_9")
	}
}

// TestPropagationSoundOnRects: for random nested rectangles, if a leaf
// MBR is in configuration c then any covering node rectangle is in
// mbr.Propagation({c}).
func TestPropagationSoundOnRects(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	q := geom.R(10, 10, 20, 20)
	// Draw coordinates from a grid including q's edges so equality
	// configurations occur.
	coord := func() float64 { return float64(rng.Intn(33)) }
	for i := 0; i < 300000; i++ {
		x0, x1 := coord(), coord()
		y0, y1 := coord(), coord()
		if x0 >= x1 || y0 >= y1 {
			continue
		}
		leaf := geom.R(x0, y0, x1, y1)
		node := geom.R(
			leaf.Min.X-float64(rng.Intn(4)), leaf.Min.Y-float64(rng.Intn(4)),
			leaf.Max.X+float64(rng.Intn(4)), leaf.Max.Y+float64(rng.Intn(4)),
		)
		c := mbr.ConfigOf(leaf, q)
		pc := mbr.ConfigOf(node, q)
		if !mbr.Propagation(mbr.NewConfigSet(c)).Has(pc) {
			t.Fatalf("leaf %v (config %v) under node %v (config %v): node config not in propagation %v",
				leaf, c, node, pc, mbr.Propagation(mbr.NewConfigSet(c)))
		}
	}
}

// TestExpand2SoundUnderEnlargement: if a crisp pair exhibits relation r
// and both MBRs are enlarged slightly (the paper's non-crisp scenario),
// the stored configuration must lie in the Table 5 row for r.
func TestExpand2SoundUnderEnlargement(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, r := range topo.All() {
		row := mbr.CandidatesNonCrisp(r)
		for i := 0; i < 200; i++ {
			p, q := workload.PairInRelation(rng, r)
			pb, qb := p.Bounds(), q.Bounds()
			// Independent tiny enlargements of each side of each MBR.
			enlarge := func(b geom.Rect) geom.Rect {
				e := func() float64 { return rng.Float64() * 1e-6 * (1 + b.Width() + b.Height()) }
				return geom.Rect{
					Min: geom.Point{X: b.Min.X - e(), Y: b.Min.Y - e()},
					Max: geom.Point{X: b.Max.X + e(), Y: b.Max.Y + e()},
				}
			}
			c := mbr.ConfigOf(enlarge(pb), enlarge(qb))
			if !row.Has(c) {
				t.Fatalf("%v: enlarged config %v outside Table 5 row", r, c)
			}
		}
	}
}
