package mbr

import (
	"math/rand"
	"testing"

	"mbrtopo/internal/geom"
	"mbrtopo/internal/topo"
)

// TestDominationSoundSingleConfig checks exactness on singleton sets:
// for every one of the 169 configurations, the domination predicate
// built from {c} admits exactly the pairs whose configuration is c
// (singleton sets have no box-closure slack).
func TestDominationSoundSingleConfig(t *testing.T) {
	rng := rand.New(rand.NewSource(1995))
	pairs := randomRectPairs(rng, 2000)
	for _, c := range AllConfigs() {
		dom := DominationFor(NewConfigSet(c))
		for _, pr := range pairs {
			got := dom.Admits(pr[0], pr[1])
			want := ConfigOf(pr[0], pr[1]) == c
			if got != want {
				t.Fatalf("singleton %v: Admits(%v, %v) = %v, exact = %v",
					c, pr[0], pr[1], got, want)
			}
		}
	}
}

// TestDominationSoundTopoSets is the headline property over the sets
// the query processor actually uses: for every topological relation's
// candidate set (and the propagation set used in node predicates),
// the pre-test never rejects a pair the exact test accepts, and neither
// do the sweep facts, which exist exactly for the point-sharing sets.
func TestDominationSoundTopoSets(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	pairs := randomRectPairs(rng, 5000)
	sets := []ConfigSet{FullConfigSet(), Touching()}
	for _, rel := range topo.All() {
		cands := CandidatesSet(topo.NewSet(rel))
		sets = append(sets, cands, Propagation(cands), CandidatesNonContiguous(rel))
	}
	for si, set := range sets {
		dom := DominationFor(set)
		sweep, ok := dom.Sweep()
		if ok != set.SubsetOf(Touching()) {
			t.Fatalf("set %d: Sweep says ok %v, but SubsetOf(Touching()) is %v", si, ok, !ok)
		}
		for _, pr := range pairs {
			if !set.Has(ConfigOf(pr[0], pr[1])) {
				continue
			}
			if !dom.Admits(pr[0], pr[1]) {
				t.Fatalf("set %d: domination rejected %v vs %v whose config %v is in the set",
					si, pr[0], pr[1], ConfigOf(pr[0], pr[1]))
			}
			if ok && !sweepKeeps(sweep, pr[0], pr[1]) {
				t.Fatalf("set %d: the sweep facts drop %v vs %v whose config %v is in the set",
					si, pr[0], pr[1], ConfigOf(pr[0], pr[1]))
			}
		}
	}
}

// sweepKeeps reports whether a sweep steered by s would test (p, q)
// with q in a node whose MBR is q and p in one whose MBR is p — the
// tightest windows there are.
func sweepKeeps(s Sweep, p, q geom.Rect) bool {
	order := s.Later
	if p.Min.X < q.Min.X {
		order = s.Earlier
	} else if p.Min.X == q.Min.X {
		order = s.Level
	}
	return order && s.Left(q).Fits(p) && s.Right(p).Fits(q)
}

// TestDominationPrunes makes sure the predicate is not vacuous: for a
// selective relation it must reject pairs plain intersection admits.
func TestDominationPrunes(t *testing.T) {
	dom := DominationFor(CandidatesSet(topo.NewSet(topo.Covers)))
	p := geom.R(0, 0, 10, 10)
	q := geom.R(20, 20, 30, 30) // disjoint: cannot cover
	if dom.Admits(q, p) {
		t.Fatalf("covers-domination admitted a disjoint pair")
	}
	inside := geom.R(2, 2, 8, 8) // p intersects it but cannot be covered by it
	if dom.Admits(inside, p) {
		t.Fatalf("covers-domination admitted an entry strictly inside the ref")
	}
}

// FuzzDomination fuzzes the soundness property over arbitrary rect
// pairs and arbitrary relation subsets: whenever the exact
// configuration test accepts, the domination pre-test must too.
func FuzzDomination(f *testing.F) {
	f.Add(0.0, 0.0, 10.0, 10.0, 2.0, 2.0, 8.0, 8.0, uint8(0xFF))
	f.Add(0.0, 0.0, 1.0, 1.0, 0.0, 0.0, 1.0, 1.0, uint8(0x01))
	f.Add(-5.0, -5.0, 5.0, 5.0, 5.0, -5.0, 15.0, 5.0, uint8(0x2A))
	f.Fuzz(func(t *testing.T, ax, ay, bx, by, cx, cy, dx, dy float64, relBits uint8) {
		p := geom.R(min(ax, bx), min(ay, by), max(ax, bx), max(ay, by))
		q := geom.R(min(cx, dx), min(cy, dy), max(cx, dx), max(cy, dy))
		if !p.Valid() || !q.Valid() {
			t.Skip()
		}
		var rels topo.Set
		for _, r := range topo.All() {
			if relBits&(1<<uint(r)) != 0 {
				rels = rels.Add(r)
			}
		}
		if rels.IsEmpty() {
			rels = topo.NotDisjoint
		}
		set := CandidatesSet(rels)
		dom := DominationFor(set)
		if set.Has(ConfigOf(p, q)) && !dom.Admits(p, q) {
			t.Fatalf("domination rejected %v vs %v with config %v in set for %v",
				p, q, ConfigOf(p, q), rels)
		}
		if sweep, ok := dom.Sweep(); ok && set.Has(ConfigOf(p, q)) && !sweepKeeps(sweep, p, q) {
			t.Fatalf("the sweep facts drop %v vs %v with config %v in set for %v",
				p, q, ConfigOf(p, q), rels)
		}
		prop := Propagation(set)
		pdom := DominationFor(prop)
		if prop.Has(ConfigOf(p, q)) && !pdom.Admits(p, q) {
			t.Fatalf("node domination rejected %v vs %v with config %v in propagation of %v",
				p, q, ConfigOf(p, q), rels)
		}
		checkCompiled(t, set, p, q)
		checkCompiled(t, prop, p, q)
	})
}

// checkCompiled: the compiled window of s against a finite q fits p
// exactly when the sign masks admit p — or at least then, where a
// corner's regions are not one run and the window spans their hull —
// an exact window fits p exactly when s holds p's configuration, and
// the descent's test (Filter: the window, and the probe behind it
// where it is not exact) says what the bare probe says.
func checkCompiled(t *testing.T, s ConfigSet, p, q geom.Rect) {
	t.Helper()
	test := Compile(s)
	w, exact := test.Window(q)
	admits, fits := test.Domination().Admits(p, q), w.Fits(p)
	runs := q.Finite()
	for _, c := range test.corners {
		runs = runs && oneRun(c[0]) && oneRun(c[1])
	}
	if admits && !fits || runs && fits != admits {
		t.Fatalf("%v against %v: window fits %v, masks admit %v (regions %v) for %v", p, q, fits, admits, test.corners, s)
	}
	if exact && fits != s.Has(ConfigOf(p, q)) {
		t.Fatalf("%v against %v: exact window fits %v, config %v in set %v", p, q, fits, ConfigOf(p, q), s.Has(ConfigOf(p, q)))
	}
	if f := Filter(s, q); f.Has(p) != s.Has(ConfigOf(p, q)) || (f.probe == nil) != exact {
		t.Fatalf("%v against %v: Filter says %v, config %v in set %v; probe %v, exact %v",
			p, q, f.Has(p), ConfigOf(p, q), s.Has(ConfigOf(p, q)), f.probe != nil, exact)
	}
}

// TestCompiledWindow runs checkCompiled over every set a relation subset
// yields — Table 1, its Propagation and its JoinPropagation; crisp,
// Section 7 non-contiguous and Section 6 Expand2 — on an 8×8 integer
// grid, where every order of equal and distinct endpoints occurs, and
// gives a reference of zero extent the whole plane, never exact. The
// conjunction of each set's test with the previous set's, on another
// reference (Pred.And), says what both say, and runs no probe where
// neither does.
func TestCompiledWindow(t *testing.T) {
	var grid []geom.Rect
	for x0 := 0; x0 < 8; x0++ {
		for x1 := x0 + 1; x1 < 8; x1++ {
			for y0 := 0; y0 < 8; y0++ {
				for y1 := y0 + 1; y1 < 8; y1++ {
					grid = append(grid, geom.R(float64(x0), float64(y0), float64(x1), float64(y1)))
				}
			}
		}
	}
	modes := []func(topo.Set) ConfigSet{
		CandidatesSet, CandidatesNonContiguousSet,
		func(s topo.Set) ConfigSet { return Expand2(CandidatesSet(s)) },
	}
	forms := []func(ConfigSet) ConfigSet{func(s ConfigSet) ConfigSet { return s }, Propagation, JoinPropagation}
	rng := rand.New(rand.NewSource(1995))
	exactCrisp := 0
	prev := CandidatesSet(topo.NotDisjoint)
	for bits := 1; bits < 1<<8; bits++ {
		var rels topo.Set
		for i, r := range topo.All() {
			if bits&(1<<i) != 0 {
				rels = rels.Add(r)
			}
		}
		for mi, mode := range modes {
			for fi, form := range forms {
				s := form(mode(rels))
				test := Compile(s)
				if mi == 0 && fi < 2 && test.exact {
					exactCrisp++
				}
				for k := 0; k < 3; k++ {
					q, q2 := grid[rng.Intn(len(grid))], grid[rng.Intn(len(grid))]
					one, other := Filter(s, q), Filter(prev, q2)
					both := one.And(other)
					if (both.probe == nil) != (one.probe == nil && other.probe == nil) {
						t.Fatalf("%v against %v and %v against %v: conjunction probe %v, terms' %v and %v",
							s, q, prev, q2, both.probe != nil, one.probe != nil, other.probe != nil)
					}
					for _, p := range grid {
						checkCompiled(t, s, p, q)
						if want := s.Has(ConfigOf(p, q)) && prev.Has(ConfigOf(p, q2)); both.Has(p) != want {
							t.Fatalf("%v: conjunction of %v against %v and %v against %v says %v, want %v", p, s, q, prev, q2, !want, want)
						}
					}
				}
				prev = s
				for _, q := range []geom.Rect{geom.R(3, 1, 3, 6), geom.R(1, 4, 6, 4), geom.R(2, 2, 2, 2)} {
					w, exact := test.Window(q)
					if exact || !w.Fits(geom.R(-1e300, -1e300, 1e300, 1e300)) {
						t.Fatalf("zero-extent %v: window %v, exact %v; want the whole plane, not exact", q, w, exact)
					}
				}
			}
		}
	}
	t.Logf("%d of 510 crisp Table 1 and propagation sets are exact", exactCrisp)
}

// TestExactTable1Sets pins which sets of the filter step the sign boxes
// decide alone (DESIGN §2): every single relation's Table 1 row but
// disjoint's and meet's, the propagation and join propagation of every
// single relation, and the rows of not_disjoint and of the cadastral in
// with their propagations.
func TestExactTable1Sets(t *testing.T) {
	for _, r := range topo.All() {
		cands := Candidates(r)
		if got, want := Compile(cands).exact, r != topo.Disjoint && r != topo.Meet; got != want {
			t.Errorf("%v: Table 1 row (%d configurations) exact = %v, want %v", r, cands.Len(), got, want)
		}
		if !Compile(Propagation(cands)).exact || !Compile(JoinPropagation(cands)).exact {
			t.Errorf("%v: propagation exact %v, join propagation exact %v, want both", r,
				Compile(Propagation(cands)).exact, Compile(JoinPropagation(cands)).exact)
		}
	}
	for name, rels := range map[string]topo.Set{"not_disjoint": topo.NotDisjoint, "in": topo.In} {
		cands := CandidatesSet(rels)
		if !Compile(cands).exact || !Compile(Propagation(cands)).exact {
			t.Errorf("%s: row exact %v, propagation exact %v, want both", name,
				Compile(cands).exact, Compile(Propagation(cands)).exact)
		}
	}
}

// TestCompiledPairTest: the join's pair test (Test.Admits) says what
// the bare probe says, for every pair of valid rectangles with corners
// on the integer grid 0..4 — where every order of equal and distinct
// edges occurs, in both argument orders — and for the sets a join
// compiles: each single relation's Table 1 row, crisp and Section 7,
// the join propagation of each, and Touching. Where a set is Exact the
// compiled window on the second rectangle agrees with it.
func TestCompiledPairTest(t *testing.T) {
	var grid []geom.Rect
	for x0 := 0; x0 <= 4; x0++ {
		for x1 := x0 + 1; x1 <= 4; x1++ {
			for y0 := 0; y0 <= 4; y0++ {
				for y1 := y0 + 1; y1 <= 4; y1++ {
					grid = append(grid, geom.R(float64(x0), float64(y0), float64(x1), float64(y1)))
				}
			}
		}
	}
	sets := map[string]ConfigSet{"touching": Touching()}
	for _, r := range topo.All() {
		for mode, table := range map[string]func(topo.Set) ConfigSet{"": CandidatesSet, " non-contiguous": CandidatesNonContiguousSet} {
			cands := table(topo.NewSet(r))
			sets[r.String()+mode] = cands
			sets[r.String()+mode+" join propagation"] = JoinPropagation(cands)
		}
	}
	for name, s := range sets {
		test := Compile(s)
		for _, q := range grid {
			w, exact := test.Window(q)
			for _, p := range grid {
				want := s.Has(ConfigOf(p, q))
				if got := test.Admits(&p, &q); got != want {
					t.Fatalf("%s: Admits(%v, %v) = %v, configuration %v in the set %v", name, p, q, got, ConfigOf(p, q), want)
				}
				if exact && w.Fits(p) != want {
					t.Fatalf("%s: the exact window on %v fits %v: %v, configuration %v in the set %v", name, q, p, w.Fits(p), ConfigOf(p, q), want)
				}
			}
		}
	}
}

func randomRectPairs(rng *rand.Rand, n int) [][2]geom.Rect {
	out := make([][2]geom.Rect, 0, n)
	// Snap half the coordinates to a coarse grid so equal-endpoint
	// configurations (meets, starts, equal, …) actually occur.
	coord := func() float64 {
		c := rng.Float64()*100 - 50
		if rng.Intn(2) == 0 {
			c = float64(int(c))
		}
		return c
	}
	for len(out) < n {
		p := geom.R(0, 0, 1, 1)
		q := geom.R(0, 0, 1, 1)
		x1, x2 := coord(), coord()
		y1, y2 := coord(), coord()
		p = geom.R(min(x1, x2), min(y1, y2), max(x1, x2), max(y1, y2))
		x1, x2 = coord(), coord()
		y1, y2 = coord(), coord()
		q = geom.R(min(x1, x2), min(y1, y2), max(x1, x2), max(y1, y2))
		if !p.Valid() || !q.Valid() {
			continue
		}
		out = append(out, [2]geom.Rect{p, q})
	}
	return out
}
