package query

import (
	"testing"

	"mbrtopo/internal/geom"
	"mbrtopo/internal/mbr"
)

// FuzzPairAdmits: for random rectangle pairs and random configuration
// sets — any subset of the 169, not only the ones Tables 1 and 2 produce
// — the package's pair test (domination pre-test, then the probe) says
// what the bare probe says, whichever form it is used in: the join's
// compiled two-rectangle test (mbr.Test.Admits) or the descent's
// closure over a reference (mbr.Filter).
func FuzzPairAdmits(f *testing.F) {
	f.Add(0.0, 0.0, 10.0, 10.0, 2.0, 2.0, 8.0, 8.0, ^uint64(0), ^uint64(0), ^uint64(0))
	f.Add(0.0, 0.0, 1.0, 1.0, 0.0, 0.0, 1.0, 1.0, uint64(1), uint64(0), uint64(0))
	f.Add(-5.0, -5.0, 5.0, 5.0, 5.0, -5.0, 15.0, 5.0, uint64(0x2A), uint64(1<<40), uint64(3))
	f.Add(3.0, 3.0, 4.0, 7.0, 3.0, 0.0, 9.0, 3.0, uint64(0xF0F0F0F0F0F0F0F0), uint64(0x0F0F), uint64(0))
	f.Fuzz(func(t *testing.T, ax, ay, bx, by, cx, cy, dx, dy float64, w0, w1, w2 uint64) {
		p := geom.R(min(ax, bx), min(ay, by), max(ax, bx), max(ay, by))
		q := geom.R(min(cx, dx), min(cy, dy), max(cx, dx), max(cy, dy))
		if !p.Valid() || !q.Valid() {
			t.Skip() // the trees store none, and interval.Relate refuses them
		}
		var set mbr.ConfigSet
		for i, w := range [3]uint64{w0, w1, w2} {
			for b := 0; b < 64 && i*64+b < mbr.NumConfigs; b++ {
				if w&(1<<b) != 0 {
					set.Add(mbr.ConfigFromIndex(i*64 + b))
				}
			}
		}
		want := set.Has(mbr.ConfigOf(p, q))
		test := mbr.Compile(set)
		if got := test.Admits(&p, &q); got != want {
			t.Fatalf("pair test says %v, the bare probe %v: %v vs %v, config %v, set %v", got, want, p, q, mbr.ConfigOf(p, q), set)
		}
		if got := mbr.Filter(set, q)(p); got != want {
			t.Fatalf("mbr.Filter says %v, the bare probe %v: %v vs %v, config %v, set %v", got, want, p, q, mbr.ConfigOf(p, q), set)
		}
	})
}
