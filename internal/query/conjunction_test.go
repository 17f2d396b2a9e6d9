package query

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"mbrtopo/internal/geom"
	"mbrtopo/internal/index"
	"mbrtopo/internal/mbr"
	"mbrtopo/internal/rtree"
	"mbrtopo/internal/shard"
	"mbrtopo/internal/topo"
)

// skewedRecords is a world with a dense cluster in the lower left and
// a sparse scatter everywhere else, so that two references of the same
// size can cost very different descents.
func skewedRecords() []rtree.Record {
	rng := rand.New(rand.NewSource(7))
	var recs []rtree.Record
	oid := uint64(1)
	add := func(x, y, w, h float64) {
		recs = append(recs, rtree.Record{Rect: geom.R(x, y, x+w, y+h), OID: oid})
		oid++
	}
	for i := 0; i < 1800; i++ { // dense cluster in [0,20]²
		add(rng.Float64()*19, rng.Float64()*19, 0.5+rng.Float64(), 0.5+rng.Float64())
	}
	for i := 0; i < 200; i++ { // sparse everywhere in [0,100]²
		add(rng.Float64()*98, rng.Float64()*98, 0.5+rng.Float64(), 0.5+rng.Float64())
	}
	return recs
}

// skewedIndex bulk-loads skewedRecords into a packed R*-tree.
func skewedIndex(t *testing.T) (index.Index, []rtree.Record) {
	t.Helper()
	recs := skewedRecords()
	idx, err := index.NewWithPageSize(index.KindRStar, 512)
	if err != nil {
		t.Fatal(err)
	}
	if err := idx.InsertBatch(recs); err != nil {
		t.Fatal(err)
	}
	return idx, recs
}

// TestStreamConjunctionMatchesBrute: the streamed conjunction must
// emit exactly the objects that are candidates for both terms.
func TestStreamConjunctionMatchesBrute(t *testing.T) {
	idx, recs := skewedIndex(t)
	p := &Processor{Idx: idx}
	cases := []struct {
		r1, r2 topo.Set
		q1, q2 geom.Rect
	}{
		{topo.NewSet(topo.Overlap), topo.NewSet(topo.Overlap), geom.R(2, 2, 12, 12), geom.R(8, 8, 30, 30)},
		{topo.NotDisjoint, topo.NewSet(topo.Disjoint), geom.R(0, 0, 50, 50), geom.R(10, 10, 15, 15)},
		{topo.NewSet(topo.Inside), topo.NewSet(topo.Overlap), geom.R(0, 0, 25, 25), geom.R(20, 0, 40, 25)},
	}
	for ci, tc := range cases {
		c1 := p.candidateConfigs(tc.r1)
		c2 := p.candidateConfigs(tc.r2)
		var want []uint64
		for _, r := range recs {
			if c1.Has(mbr.ConfigOf(r.Rect, tc.q1)) && c2.Has(mbr.ConfigOf(r.Rect, tc.q2)) {
				want = append(want, r.OID)
			}
		}
		var got []uint64
		stats, err := p.StreamConjunction(context.Background(), tc.r1, tc.q1, tc.r2, tc.q2, 0, func(m Match) bool {
			got = append(got, m.OID)
			return true
		})
		if err != nil {
			t.Fatalf("case %d: %v", ci, err)
		}
		sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		if !slices.Equal(got, want) {
			t.Fatalf("case %d: got %d matches, want %d", ci, len(got), len(want))
		}
		if stats.Explain != "plan=conjunction terms=2" {
			t.Fatalf("case %d: explain %q", ci, stats.Explain)
		}

		// The batch conjunction is the same descent: it reads the same
		// pages and sends exactly the streamed candidates to refinement.
		// It takes one relation per term.
		if tc.r1.Len() != 1 || tc.r2.Len() != 1 {
			continue
		}
		store := MapStore{}
		for _, r := range recs {
			store[r.OID] = r.Rect.Polygon()
		}
		batch, err := (&Processor{Idx: idx, Objects: store}).QueryConjunction(
			tc.r1.Relations()[0], tc.q1.Polygon(), tc.r2.Relations()[0], tc.q2.Polygon())
		if err != nil {
			t.Fatalf("case %d: QueryConjunction: %v", ci, err)
		}
		if batch.Stats.NodeAccesses != stats.NodeAccesses || batch.Stats.Explain != stats.Explain {
			t.Fatalf("case %d: batch %+v, stream %+v: not the same descent", ci, batch.Stats, stats)
		}
		if batch.Stats.RefinementTests != len(got) {
			t.Fatalf("case %d: batch refined %d candidates, stream delivered %d", ci, batch.Stats.RefinementTests, len(got))
		}
		if i := slices.IndexFunc(batch.Matches, func(m Match) bool { return !slices.Contains(got, m.OID) }); i >= 0 {
			t.Fatalf("case %d: batch answer %d was never a streamed candidate", ci, batch.Matches[i].OID)
		}
	}
}

// TestStreamConjunctionShortCircuits: contradictory terms against
// disjoint references must be answered from the composition table.
func TestStreamConjunctionShortCircuits(t *testing.T) {
	idx, _ := skewedIndex(t)
	p := &Processor{Idx: idx}
	// p inside q1 and p contains q2 is impossible when q1, q2 disjoint.
	stats, err := p.StreamConjunction(context.Background(),
		topo.NewSet(topo.Inside), geom.R(0, 0, 10, 10),
		topo.NewSet(topo.Contains), geom.R(50, 50, 60, 60), 0,
		func(Match) bool { t.Fatal("short-circuited query emitted a match"); return false })
	if err != nil {
		t.Fatal(err)
	}
	if !stats.ShortCircuited || stats.NodeAccesses != 0 || stats.Explain != "plan=conjunction short-circuit refs=disjoint" {
		t.Fatalf("expected a zero-access short circuit, got %+v", stats)
	}
}

// conjunctionIndexes loads recs into each access method, as one tree
// and as four STR tiles behind the router.
func conjunctionIndexes(t *testing.T, recs []rtree.Record) map[string]index.Index {
	t.Helper()
	out := map[string]index.Index{}
	for _, kind := range index.AllKinds() {
		for _, tiles := range []int{1, 4} {
			parts := make([]index.Index, tiles)
			for i := range parts {
				var err error
				if parts[i], err = index.NewWithPageSize(kind, 512); err != nil {
					t.Fatal(err)
				}
			}
			idx := parts[0]
			if tiles > 1 {
				idx = shard.New(parts...)
			}
			if err := idx.InsertBatch(recs); err != nil {
				t.Fatalf("%v, %d tiles: %v", kind, tiles, err)
			}
			out[fmt.Sprintf("%v/%d tiles", kind, tiles)] = idx
		}
	}
	return out
}

// TestConjunctionBothTermsPrune: a two-term conjunction is one descent
// pruned by both terms. For every ordered pair of relations, on
// references that overlap and on references far apart, over each access
// method as one tree and as four tiles, and either way round: the
// streamed ids are the first term's own stream filtered by the second
// term's leaf test, a limit cuts a prefix of them, and the descent
// reads no more pages than the first term's own; QueryConjunction
// refines the same candidates to the brute-force answer. On covering
// trees the two ways round are one descent — same ids in the same
// order, same pages, no more than the cheaper term alone. An R+-tree
// is steered by the first term (see conjunctionPreds), so the two ways
// round agree on the objects only; the objects spanning both references
// are the ones two and-ed partition predicates would lose. A single
// tree emits in tree order, which the comparison keeps; tiles are
// traversed concurrently, so theirs is compared sorted.
func TestConjunctionBothTermsPrune(t *testing.T) {
	recs := skewedRecords()
	small := uint64(len(recs)) // ids above it are the large objects
	for _, r := range []geom.Rect{geom.R(0.5, 0.5, 96, 96), geom.R(3, 3, 70, 70), geom.R(5, 0.2, 99, 12), geom.R(0.1, 4, 8, 99)} {
		recs = append(recs, rtree.Record{Rect: r, OID: uint64(len(recs) + 1)})
	}
	store := MapStore{}
	for _, r := range recs {
		store[r.OID] = r.Rect.Polygon()
	}
	placements := map[string][2]geom.Rect{
		"nearby":    {geom.R(2, 2, 14, 14), geom.R(9, 9, 30, 30)},
		"unrelated": {geom.R(1, 1, 9, 9), geom.R(60, 60, 95, 95)},
	}
	ctx := context.Background()
	for name, idx := range conjunctionIndexes(t, recs) {
		_, tiled := idx.(*shard.Sharded)
		p := &Processor{Idx: idx}
		refiner := &Processor{Idx: idx, Objects: store}
		collect := func(label string, run func(yield func(Match) bool) (Stats, error)) ([]uint64, Stats) {
			t.Helper()
			var ids []uint64
			stats, err := run(func(m Match) bool { ids = append(ids, m.OID); return true })
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if tiled {
				slices.Sort(ids)
			}
			return ids, stats
		}
		// conjunction streams sa(p, qa) ∧ sb(p, qb) and checks it against
		// the first term's own stream.
		conjunction := func(label string, sa topo.Set, qa geom.Rect, sb topo.Set, qb geom.Rect) ([]uint64, Stats, Stats) {
			t.Helper()
			got, stats := collect(label, func(yield func(Match) bool) (Stats, error) {
				return p.StreamConjunction(ctx, sa, qa, sb, qb, 0, yield)
			})
			if stats.ShortCircuited {
				return got, stats, Stats{}
			}
			leafB := mbr.Filter(p.candidateConfigs(sb), qb)
			want, alone := collect(label, func(yield func(Match) bool) (Stats, error) {
				return p.Stream(ctx, sa, qa, 0, func(m Match) bool { return !leafB(m.Rect) || yield(m) })
			})
			if !slices.Equal(got, want) {
				t.Fatalf("%s: %d ids, the first term's stream filtered by the second has %d", label, len(got), len(want))
			}
			if stats.NodeAccesses > alone.NodeAccesses {
				t.Fatalf("%s: %d node accesses, the first term alone reads %d", label, stats.NodeAccesses, alone.NodeAccesses)
			}
			if limit := len(got) / 2; limit > 0 {
				cut, _ := collect(label, func(yield func(Match) bool) (Stats, error) {
					return p.StreamConjunction(ctx, sa, qa, sb, qb, limit, yield)
				})
				if tiled {
					// Which tile delivers first is not fixed: any limit ids
					// of the answer, no two alike.
					if len(slices.Compact(cut)) != limit || slices.ContainsFunc(cut, func(id uint64) bool { return !slices.Contains(got, id) }) {
						t.Fatalf("%s, limit %d: got %v", label, limit, cut)
					}
				} else if !slices.Equal(cut, got[:limit]) {
					t.Fatalf("%s, limit %d: got %v, want the prefix %v", label, limit, cut, got[:limit])
				}
			}
			return got, stats, alone
		}
		for place, refs := range placements {
			q1, q2 := refs[0], refs[1]
			executed, spanning := 0, 0
			for _, r1 := range topo.All() {
				for _, r2 := range topo.All() {
					label := fmt.Sprintf("%s, %s refs, %v ∧ %v", name, place, r1, r2)
					s1, s2 := topo.NewSet(r1), topo.NewSet(r2)
					got, stats, alone1 := conjunction(label, s1, q1, s2, q2)
					swapped, statsSwapped, alone2 := conjunction(label+", swapped", s2, q2, s1, q1)
					if idx.CoveringNodeRects() {
						if !slices.Equal(got, swapped) || stats != statsSwapped {
							t.Fatalf("%s: %d ids, %+v; terms swapped: %d ids, %+v", label, len(got), stats, len(swapped), statsSwapped)
						}
						if least := min(alone1.NodeAccesses, alone2.NodeAccesses); stats.NodeAccesses > least {
							t.Fatalf("%s: %d node accesses, the cheaper term alone reads %d", label, stats.NodeAccesses, least)
						}
					} else if !slices.Equal(sortedIDs(got), sortedIDs(swapped)) || stats.ShortCircuited != statsSwapped.ShortCircuited {
						t.Fatalf("%s: %d ids, %+v; terms swapped: %d ids, %+v", label, len(got), stats, len(swapped), statsSwapped)
					}

					batch, err := refiner.QueryConjunction(r1, q1.Polygon(), r2, q2.Polygon())
					if err != nil {
						t.Fatalf("%s: QueryConjunction: %v", label, err)
					}
					var exact []uint64
					for _, r := range recs {
						if mbr.RelateRects(r.Rect, q1) == r1 && mbr.RelateRects(r.Rect, q2) == r2 {
							exact = append(exact, r.OID)
							if r.OID > small {
								spanning++
							}
						}
					}
					if !slices.Equal(oids(batch.Matches), exact) {
						t.Fatalf("%s: QueryConjunction returned %d objects, brute force %d", label, len(batch.Matches), len(exact))
					}
					if stats.ShortCircuited {
						if len(got) != 0 || stats.NodeAccesses != 0 || len(exact) != 0 || !batch.Stats.ShortCircuited {
							t.Fatalf("%s: short circuit with %d ids, %d accesses, %d exact answers, batch %+v",
								label, len(got), stats.NodeAccesses, len(exact), batch.Stats)
						}
						continue
					}
					executed++
					if batch.Stats.NodeAccesses != stats.NodeAccesses || batch.Stats.RefinementTests != len(got) {
						t.Fatalf("%s: batch %+v is not the streamed descent %+v", label, batch.Stats, stats)
					}
				}
			}
			if executed < 8 || spanning == 0 {
				t.Fatalf("%s, %s refs: %d of 64 conjunctions ran a descent, %d answers span both references", name, place, executed, spanning)
			}
		}
	}
}

func sortedIDs(ids []uint64) []uint64 {
	out := slices.Clone(ids)
	slices.Sort(out)
	return out
}
