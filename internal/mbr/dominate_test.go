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
// the pre-test never rejects a pair the exact test accepts.
func TestDominationSoundTopoSets(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	pairs := randomRectPairs(rng, 5000)
	sets := []ConfigSet{FullConfigSet()}
	for _, rel := range topo.All() {
		cands := CandidatesSet(topo.NewSet(rel))
		sets = append(sets, cands, Propagation(cands))
	}
	for si, set := range sets {
		dom := DominationFor(set)
		for _, pr := range pairs {
			if set.Has(ConfigOf(pr[0], pr[1])) && !dom.Admits(pr[0], pr[1]) {
				t.Fatalf("set %d: domination rejected %v vs %v whose config %v is in the set",
					si, pr[0], pr[1], ConfigOf(pr[0], pr[1]))
			}
		}
	}
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
		prop := Propagation(set)
		pdom := DominationFor(prop)
		if prop.Has(ConfigOf(p, q)) && !pdom.Admits(p, q) {
			t.Fatalf("node domination rejected %v vs %v with config %v in propagation of %v",
				p, q, ConfigOf(p, q), rels)
		}
	})
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
