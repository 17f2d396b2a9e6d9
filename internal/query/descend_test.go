package query

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"mbrtopo/internal/geom"
	"mbrtopo/internal/index"
	"mbrtopo/internal/mbr"
	"mbrtopo/internal/rtree"
	"mbrtopo/internal/topo"
	"mbrtopo/internal/workload"
)

// registrationProbe is 400 medium records, oid 2 a second time under
// [500,500,510,510], and ids 3..42 a second time: the odd ones under the
// same rectangle, the even ones under a rectangle half a unit off.
func registrationProbe() []index.Item {
	items := workload.NewDataset(workload.Medium, 400, 0, 1995).Items
	items = append(items, index.Item{Rect: geom.R(500, 500, 510, 510), OID: 2})
	for _, it := range items[2:42] {
		if it.OID%2 == 0 {
			it.Rect = geom.R(it.Rect.Min.X+0.5, it.Rect.Min.Y+0.5, it.Rect.Max.X+0.5, it.Rect.Max.Y+0.5)
		}
		items = append(items, it)
	}
	return items
}

// sortedKeys sorts an answer's "oid rect" keys: its multiset.
func sortedKeys(keys []string) []string {
	slices.Sort(keys)
	return keys
}

// TestAnswerUnitIsTheRegistration: a query lists each stored (oid, rect)
// registration once per insertion, on every tree kind and for every
// relation, so two builds of one probe of another shape — STR-packed and
// one by one; on an R+-tree, in two orders — answer the same multiset,
// the brute-force one. An odd id inserted twice under one rectangle is
// listed twice, an even one under both its rectangles, and an R+
// registration that crosses leaves once per insertion. A limit counts
// registrations, and kNN answers them too.
func TestAnswerUnitIsTheRegistration(t *testing.T) {
	items := registrationProbe()
	reversed := slices.Clone(items)
	slices.Reverse(reversed)
	refs := []geom.Rect{geom.R(-10, -10, 1010, 1010), geom.R(300, 250, 620, 540), geom.R(495, 495, 515, 515)}
	for _, kind := range index.AllKinds() {
		one, err := index.NewWithPageSize(kind, 512)
		if err == nil {
			err = index.Load(one, items)
		}
		if err != nil {
			t.Fatal(err)
		}
		var other index.Index
		if kind == index.KindRPlus { // no STR packing: another insertion order
			if other, err = index.NewWithPageSize(kind, 512); err == nil {
				err = index.Load(other, reversed)
			}
		} else {
			other, err = index.NewPacked(kind, 512, items)
		}
		if err != nil {
			t.Fatal(err)
		}
		if one.Len() != len(items) || other.Len() != len(items) {
			t.Fatalf("%s: Len %d and %d for %d registrations", kind, one.Len(), other.Len(), len(items))
		}
		all := func(geom.Rect) bool { return true }
		entries, err := one.SearchHits(context.Background(), all, all, func(rtree.Hit) bool { return true })
		if err != nil {
			t.Fatal(err)
		}
		if crosses := entries.Emitted > len(items); crosses != (kind == index.KindRPlus) {
			t.Fatalf("%s: %d leaf entries for %d registrations", kind, entries.Emitted, len(items))
		}
		stream := func(idx index.Index, rels topo.Set, ref geom.Rect, limit int) ([]string, Stats) {
			var got []string
			stats, err := (&Processor{Idx: idx}).Stream(context.Background(), rels, ref, limit, func(m Match) bool {
				got = append(got, fmt.Sprint(m.OID, m.Rect))
				return true
			})
			if err != nil {
				t.Fatal(err)
			}
			return sortedKeys(got), stats
		}
		for _, ref := range refs {
			for _, rel := range topo.All() {
				var want []string
				for _, it := range items {
					if mbr.CandidatesSet(topo.NewSet(rel)).Has(mbr.ConfigOf(it.Rect, ref)) {
						want = append(want, fmt.Sprint(it.OID, it.Rect))
					}
				}
				want = sortedKeys(want)
				for i, idx := range []index.Index{one, other} {
					for pass := 0; pass < 2; pass++ { // before and after the leaves earn their text
						if got, stats := stream(idx, topo.NewSet(rel), ref, 0); !slices.Equal(got, want) || stats.Candidates != len(want) {
							t.Fatalf("%s build %d, %s %v: %d lines (%d candidates), brute force %d", kind, i, rel, ref, len(got), stats.Candidates, len(want))
						}
					}
					res, err := (&Processor{Idx: idx}).QueryMBR(rel, ref)
					if err != nil {
						t.Fatal(err)
					}
					var got []string
					for _, m := range res.Matches {
						got = append(got, fmt.Sprint(m.OID, m.Rect))
					}
					if got = sortedKeys(got); !slices.Equal(got, want) {
						t.Fatalf("%s build %d, %s %v: QueryMBR lists %d matches, brute force %d", kind, i, rel, ref, len(got), len(want))
					}
				}
			}
		}
		world, _ := stream(one, topo.NotDisjoint, refs[0], 0)
		count := map[string]int{}
		for _, k := range world {
			count[k]++
		}
		for _, it := range items[400:] {
			want := 1 + int(it.OID%2) // an odd id: twice under one rectangle
			if n := count[fmt.Sprint(it.OID, it.Rect)]; n != want {
				t.Fatalf("%s: oid %d under %v listed %d times, want %d", kind, it.OID, it.Rect, n, want)
			}
		}
		if _, limited := stream(one, topo.NotDisjoint, refs[0], len(items)-1); limited.Candidates != len(items)-1 {
			t.Fatalf("%s: a limit of %d took %d", kind, len(items)-1, limited.Candidates)
		}
		nn, _, err := one.NearestCtx(context.Background(), geom.Point{X: 505, Y: 505}, len(items)+1)
		if err != nil {
			t.Fatal(err)
		}
		var got, want []string
		for _, n := range nn {
			got = append(got, fmt.Sprint(n.OID, n.Rect))
		}
		for _, it := range items {
			want = append(want, fmt.Sprint(it.OID, it.Rect))
		}
		if !slices.Equal(sortedKeys(got), sortedKeys(want)) {
			t.Fatalf("%s: kNN over every registration gives %d answers, not the %d registrations", kind, len(nn), len(items))
		}
		// Inside both rectangles of oid 4 its two registrations tie at
		// distance 0: the two builds still answer in one order.
		at := items[3].Rect.Center()
		var order [2][]rtree.Neighbour
		for i, idx := range []index.Index{one, other} {
			if order[i], _, err = idx.NearestCtx(context.Background(), at, 40); err != nil {
				t.Fatal(err)
			}
		}
		for i := range order[0] {
			if order[0][i] != order[1][i] {
				t.Fatalf("%s: neighbour %d of %v is %v in one build, %v in the other", kind, i, at, order[0][i], order[1][i])
			}
		}
	}
}

// TestStreamLeavesOncePerLeaf: StreamLeaves hands the descent's
// matches over in leaf batches — which is where the server's line
// writer reads its clock and applies its flush rules — that together
// are exactly the hits SearchHits delivers one by one, in the same
// order, and a limit cuts the batch that reaches it.
func TestStreamLeavesOncePerLeaf(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
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
	ctx, w := context.Background(), geom.R(100, 100, 600, 600)
	stream := func(limit int) (batched []rtree.Hit, batches int, stats Stats) {
		stats, err := p.StreamLeaves(ctx, topo.NotDisjoint, w, limit, func(l rtree.Leaf) bool {
			batches++
			for i := range l.Len() {
				batched = append(batched, l.Hit(i))
			}
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		return batched, batches, stats
	}
	batched, batches, stats := stream(0)
	var hits []rtree.Hit
	node, leaf := p.filterPreds(p.testsFor(topo.NotDisjoint, false), w)
	if _, err := idx.SearchHits(ctx, node.Has, leaf.Has, func(h rtree.Hit) bool {
		hits = append(hits, h)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(batched, hits) || stats.Candidates != len(hits) || batches < 2 || 5*batches > len(hits) {
		t.Fatalf("%d matches in %d batches (%d candidates); SearchHits: %d hits", len(batched), batches, stats.Candidates, len(hits))
	}
	limit := len(hits)/2 + 1
	if cut, _, cutStats := stream(limit); !slices.Equal(cut, hits[:limit]) || cutStats.Candidates != limit || cutStats.NodeAccesses >= stats.NodeAccesses {
		t.Fatalf("limit %d: %d matches, %+v; the whole answer %+v", limit, len(cut), cutStats, stats)
	}
}

// TestStreamAllocsIndependentOfMatches: one warm Stream or StreamLeaves
// call allocates a small constant — the adapters' closures and the
// traversal's scratch; its compiled tests are values — for five
// matches or two thousand: a covering tree's descent keeps no set of
// delivered ids, a match line comes from its leaf's text, and nothing
// is allocated per match.
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
	var allocs [2][2]float64
	var line []byte
	earned := true
	for i, w := range []geom.Rect{geom.R(500, 500, 540, 540), geom.R(100, 100, 900, 900)} {
		perMatch := func() {
			matches[i] = 0
			if _, err := p.Stream(context.Background(), topo.NotDisjoint, w, 0, func(m Match) bool {
				matches[i]++
				return true
			}); err != nil {
				t.Fatal(err)
			}
		}
		perLeaf := func() {
			earned = true
			if _, err := p.StreamLeaves(context.Background(), topo.NotDisjoint, w, 0, func(l rtree.Leaf) bool {
				lines, ok := l.Lines()
				earned = earned && ok
				for k := range l.Len() {
					if ok {
						line = append(line[:0], lines.Line(k)...)
					}
				}
				return true
			}); err != nil {
				t.Fatal(err)
			}
		}
		// Warm: the leaves earn their text — one the window clips to a
		// single entry takes as many answers as it has entries (12 at
		// this page size), plus one.
		for k := 0; k < 14; k++ {
			perLeaf()
		}
		allocs[i] = [2]float64{testing.AllocsPerRun(20, perMatch), testing.AllocsPerRun(20, perLeaf)}
	}
	if matches[1] < 100*matches[0] {
		t.Fatalf("%d and %d matches: want two answers a hundredfold apart", matches[0], matches[1])
	}
	for k, name := range []string{"Stream", "StreamLeaves"} {
		if allocs[1][k] != allocs[0][k] || allocs[0][k] > 6 {
			t.Fatalf("%s: %v allocations for %d matches, %v for %d: want the same small constant", name, allocs[0][k], matches[0], allocs[1][k], matches[1])
		}
	}
	if !earned || !bytes.Contains(line, []byte(`,"rect":[`)) {
		t.Fatalf("a warm stream's leaves came without their text: %q", line)
	}
}
