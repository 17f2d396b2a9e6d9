package query

import (
	"bytes"
	"context"
	"math/rand"
	"testing"

	"mbrtopo/internal/geom"
	"mbrtopo/internal/index"
	"mbrtopo/internal/pagefile"
	"mbrtopo/internal/topo"
)

// TestDuplicateOIDListedOnce: an answer lists an object id once on
// every tree kind and node representation — also on the covering trees,
// where nothing but the caller inserting one id twice (under two
// rectangles, or the same one) puts it in two leaf entries — streamed
// or materialised, and a limit counts ids, not entries.
func TestDuplicateOIDListedOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var items []index.Item
	for oid := uint64(1); oid <= 200; oid++ {
		x, y := rng.Float64()*90, rng.Float64()*90
		items = append(items, index.Item{Rect: geom.R(x, y, x+1+rng.Float64()*8, y+1+rng.Float64()*8), OID: oid})
	}
	// Ids 1..40 a second time: the odd ones under the same rectangle,
	// the even ones under another that the window also meets.
	for _, it := range items[:40] {
		if it.OID%2 == 0 {
			it.Rect = geom.R(it.Rect.Min.X+0.5, it.Rect.Min.Y+0.5, it.Rect.Max.X+0.5, it.Rect.Max.Y+0.5)
		}
		items = append(items, it)
	}
	window := geom.R(-1, -1, 101, 101)
	for _, kind := range index.AllKinds() {
		arena, err := index.NewWithPageSize(kind, 512)
		if err != nil {
			t.Fatal(err)
		}
		paged, err := index.NewOnFile(kind, pagefile.NewMemFile(512))
		if err != nil {
			t.Fatal(err)
		}
		for name, idx := range map[string]index.Index{kind.String(): arena, kind.String() + " on pages": paged} {
			if err := index.Load(idx, items); err != nil {
				t.Fatal(err)
			}
			entries := 0
			if err := idx.Search(func(geom.Rect) bool { return true }, func(geom.Rect) bool { return true },
				func(geom.Rect, uint64) bool { entries++; return true }); err != nil {
				t.Fatal(err)
			}
			if entries < len(items) {
				t.Fatalf("%s: %d leaf entries for %d inserts: the tree itself dropped a duplicate", name, entries, len(items))
			}
			p := &Processor{Idx: idx}
			for pass := 0; pass < 3; pass++ { // before and after the leaves earn their text
				count := map[uint64]int{}
				stats, err := p.Stream(context.Background(), topo.NotDisjoint, window, 0, func(m Match) bool {
					count[m.OID]++
					return true
				})
				if err != nil {
					t.Fatal(err)
				}
				if len(count) != 200 || stats.Candidates != 200 {
					t.Fatalf("%s: %d distinct ids streamed, %d candidates counted, want 200 and 200", name, len(count), stats.Candidates)
				}
				for oid, n := range count {
					if n != 1 {
						t.Fatalf("%s: oid %d listed %d times", name, oid, n)
					}
				}
			}
			res, err := p.QuerySetMBR(topo.NotDisjoint, window)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Matches) != 200 {
				t.Fatalf("%s: QuerySetMBR lists %d matches, want 200", name, len(res.Matches))
			}
			limited := map[uint64]bool{}
			if _, err := p.Stream(context.Background(), topo.NotDisjoint, window, 150, func(m Match) bool {
				limited[m.OID] = true
				return true
			}); err != nil {
				t.Fatal(err)
			}
			if len(limited) != 150 {
				t.Fatalf("%s: limit 150 delivered %d distinct ids", name, len(limited))
			}
		}
	}
}

// TestStreamAllocsIndependentOfMatches: one warm Stream call allocates
// a small constant — the predicates' and the adapters' closures — for
// five matches or two thousand: the set of delivered ids comes from a
// pool, a match line's text from its leaf, and nothing is allocated per
// match. (A set that outgrew oidSetMaxSlots is not pooled again, which
// is the only thing that grows.)
func TestStreamAllocsIndependentOfMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var items []index.Item
	for oid := uint64(1); oid <= 3000; oid++ {
		x, y := rng.Float64()*990, rng.Float64()*990
		items = append(items, index.Item{Rect: geom.R(x, y, x+1+rng.Float64()*9, y+1+rng.Float64()*9), OID: oid})
	}
	idx, err := index.NewPacked(index.KindRStar, 512, items)
	if err != nil {
		t.Fatal(err)
	}
	p := &Processor{Idx: idx}
	var matches [2]int
	var allocs [2]float64
	var line []byte
	for i, w := range []geom.Rect{geom.R(500, 500, 540, 540), geom.R(100, 100, 900, 900)} {
		run := func() {
			matches[i] = 0
			if _, err := p.Stream(context.Background(), topo.NotDisjoint, w, 0, func(m Match) bool {
				matches[i]++
				line = append(line[:0], m.Text...)
				return true
			}); err != nil {
				t.Fatal(err)
			}
		}
		// Warm: the pooled set grows to this answer and the leaves earn
		// their text — one the window clips to a single entry takes as
		// many answers as it has entries (12 at this page size), plus one.
		for k := 0; k < 14; k++ {
			run()
		}
		allocs[i] = testing.AllocsPerRun(20, run)
	}
	if matches[1] < 100*matches[0] || 2*matches[1] > oidSetMaxSlots {
		t.Fatalf("%d and %d matches: want two answers a hundredfold apart, both within the pooled set's %d slots", matches[0], matches[1], oidSetMaxSlots)
	}
	// Equal without -race. With it sync.Pool drops one Put in four on
	// purpose, and a dropped set is grown again by the next call: a few
	// allocations more for the larger answer, not two thousand.
	if allocs[1] > allocs[0]+6 || allocs[0] > 8 {
		t.Fatalf("%v allocations for %d matches, %v for %d: want the same small constant", allocs[0], matches[0], allocs[1], matches[1])
	}
	if !bytes.HasPrefix(line, []byte("[")) {
		t.Fatalf("a warm stream's last match came without its text: %q", line)
	}
}

// TestOIDSet checks the set against a map over ids that collide, wrap
// the table and include both ends of the range, across a pooled reuse.
func TestOIDSet(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for round := 0; round < 3; round++ {
		s := oidSets.Get().(*oidSet)
		if s.n != 0 || s.zero {
			t.Fatalf("round %d: a pooled set came back holding %d ids (zero: %v)", round, s.n, s.zero)
		}
		want := map[uint64]bool{}
		for i := 0; i < 5000; i++ {
			var id uint64
			switch rng.Intn(4) {
			case 0:
				id = uint64(rng.Intn(8)) // 0 included
			case 1:
				id = ^uint64(0) - uint64(rng.Intn(4))
			case 2:
				id = uint64(rng.Intn(700)) << 32 // equal low halves
			default:
				id = rng.Uint64()
			}
			if got := s.add(id); got == want[id] {
				t.Fatalf("round %d: add(%d) reported absent=%v, the map says present=%v", round, id, got, want[id])
			}
			want[id] = true
		}
		if round == 2 {
			for id := uint64(1); 2*len(want) <= oidSetMaxSlots+2; id++ {
				s.add(id<<20 | 1)
				want[id<<20|1] = true
			}
		}
		big := len(s.slots) > oidSetMaxSlots
		s.release()
		if big != (round == 2) {
			t.Fatalf("round %d: table of %d slots", round, len(s.slots))
		}
	}
}
