package rtree

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"mbrtopo/internal/geom"
	"mbrtopo/internal/pagefile"
)

// diffTree is what the paged-vs-arena differential drives: the three
// tree kinds behind one set of methods.
type diffTree interface {
	searcher
	InsertBatch([]Record) error
	SearchCtx(context.Context, func(geom.Rect) bool, func(geom.Rect) bool, func(geom.Rect, uint64) bool) (TraversalStats, error)
	NearestCtx(context.Context, geom.Point, int) ([]Neighbour, TraversalStats, error)
	CheckInvariants() error
	IOStats() pagefile.Stats
}

// storeOf returns a tree's store and current root.
func storeOf(t *testing.T, x any) (*store, pagefile.PageID) {
	t.Helper()
	v, ok := x.(interface{ treeCore() *core })
	if !ok {
		t.Fatalf("%T has no store", x)
	}
	c := v.treeCore()
	s := c.acquire()
	defer c.release(s)
	return c.st, s.root
}

// sameNodes walks two trees in lockstep and fails on the first node
// that differs in level, page cost, entry count or entry order. Page
// and slot ids are free to differ; everything a traversal can observe
// is not.
func sameNodes(t *testing.T, a, b *store, ra, rb pagefile.PageID, path string) (nodes, chained int) {
	t.Helper()
	na, err := a.readNodeRef(uint64(ra))
	if err != nil {
		t.Fatalf("%s: paged: %v", path, err)
	}
	nb, err := b.readNodeRef(uint64(rb))
	if err != nil {
		t.Fatalf("%s: arena: %v", path, err)
	}
	if na.level != nb.level || len(na.entries) != len(nb.entries) || na.accessCost() != nb.accessCost() {
		t.Fatalf("%s: paged node level %d, %d entries, cost %d; arena node level %d, %d entries, cost %d", path,
			na.level, len(na.entries), na.accessCost(), nb.level, len(nb.entries), nb.accessCost())
	}
	nodes = 1
	if na.accessCost() > 1 {
		chained = 1
	}
	for i := range na.entries {
		ea, eb := na.entries[i], nb.entries[i]
		if ea.Rect != eb.Rect || ea.OID != eb.OID {
			t.Fatalf("%s: entry %d is %v/%d on pages, %v/%d in the arena", path, i, ea.Rect, ea.OID, eb.Rect, eb.OID)
		}
		if !na.isLeaf() {
			n, c := sameNodes(t, a, b, ea.Child, eb.Child, fmt.Sprintf("%s/%d", path, i))
			nodes, chained = nodes+n, chained+c
		}
	}
	return nodes, chained
}

// TestArenaVsPagedDifferential applies one seeded stream of Insert,
// Delete (including a missing entry, so the R-/R*-tree rolls a mutation
// back), InsertBatch and Update to a tree on a page file and to a tree
// on a node arena, for each kind, and after every step requires the two
// to be the same tree: node for node in entry order, invariants intact,
// equal TraversalStats and page counters over a fixed query set, and
// byte-equal MBRFLAT1 images. The R+ stream starts with a stack of
// nested squares no cut line separates, so an overflow-chained node —
// page cost above one — is part of every comparison.
func TestArenaVsPagedDifferential(t *testing.T) {
	rstar := Options{Split: SplitRStar, RStarChooseSubtree: true, ForcedReinsert: true}
	kinds := []struct {
		name         string
		paged, arena func() (diffTree, error)
		joinable     bool
		steps        int
	}{
		{"R-tree",
			func() (diffTree, error) { return NewRTree(pagefile.NewMemFile(testPageSize)) },
			func() (diffTree, error) { return NewArena(testPageSize, Options{Split: SplitQuadratic}, "R-tree") },
			true, 260},
		{"R*-tree",
			func() (diffTree, error) { return NewRStar(pagefile.NewMemFile(testPageSize)) },
			func() (diffTree, error) { return NewArena(testPageSize, rstar, "R*-tree") },
			true, 260},
		{"R+-tree",
			func() (diffTree, error) { return NewRPlus(pagefile.NewMemFile(testPageSize)) },
			func() (diffTree, error) { return NewRPlusArena(testPageSize) },
			false, 160},
	}
	windows := []geom.Rect{geom.R(10, 10, 30, 30), geom.R(45, 45, 55, 55), geom.R(0, 0, 100, 100), geom.R(70, 20, 71, 21)}
	points := []geom.Point{{X: 50, Y: 50}, {X: 5, Y: 90}}

	for _, k := range kinds {
		t.Run(k.name, func(t *testing.T) {
			paged, err := k.paged()
			if err != nil {
				t.Fatal(err)
			}
			arena, err := k.arena()
			if err != nil {
				t.Fatal(err)
			}
			both := func(step string, op func(diffTree) error) error {
				ep, ea := op(paged), op(arena)
				if (ep == nil) != (ea == nil) || (ep != nil && ep.Error() != ea.Error()) {
					t.Fatalf("%s: paged tree answered %v, arena tree %v", step, ep, ea)
				}
				return ep
			}
			sawChain := false
			check := func(step string) {
				t.Helper()
				sp, rp := storeOf(t, paged)
				sa, ra := storeOf(t, arena)
				if _, chained := sameNodes(t, sp, sa, rp, ra, step+": root"); chained > 0 {
					sawChain = true
				}
				if err := both(step+": invariants", diffTree.CheckInvariants); err != nil {
					t.Fatalf("%s: %v", step, err)
				}
				for _, w := range windows {
					op, tp := collect(t, paged, w)
					oa, ta := collect(t, arena, w)
					if tp != ta || fmt.Sprint(op) != fmt.Sprint(oa) {
						t.Fatalf("%s: window %v: paged %+v %v, arena %+v %v", step, w, tp, op, ta, oa)
					}
				}
				for _, p := range points {
					np, tp, err := paged.NearestCtx(context.Background(), p, 5)
					if err != nil {
						t.Fatal(err)
					}
					na, ta, err := arena.NearestCtx(context.Background(), p, 5)
					if err != nil {
						t.Fatal(err)
					}
					if tp != ta || fmt.Sprint(np) != fmt.Sprint(na) {
						t.Fatalf("%s: 5-NN of %v: paged %+v %v, arena %+v %v", step, p, tp, np, ta, na)
					}
				}
				if k.joinable {
					pp, tp := runJoin(t, paged.(*Tree), paged.(*Tree), JoinOptions{Workers: 1})
					pa, ta := runJoin(t, arena.(*Tree), arena.(*Tree), JoinOptions{Workers: 1})
					if tp != ta {
						t.Fatalf("%s: self-join stats: paged %+v, arena %+v", step, tp, ta)
					}
					samePairs(t, pp, pa, step+": self-join")
				}
				if !bytes.Equal(flatEncode(t, paged, 7), flatEncode(t, arena, 7)) {
					t.Fatalf("%s: MBRFLAT1 images differ", step)
				}
				// Everything above read the same nodes at the same cost, and
				// every mutation wrote, allocated and freed the same pages.
				if sp, sa := paged.IOStats(), arena.IOStats(); sp != sa {
					t.Fatalf("%s: page counters: paged %v, arena %v", step, sp, sa)
				}
			}

			rng := rand.New(rand.NewSource(1995))
			live := map[uint64]geom.Rect{}
			var oids []uint64
			next := uint64(1)
			insert := func(step string, r geom.Rect) {
				oid := next
				next++
				if err := both(step, func(d diffTree) error { return d.Insert(r, oid) }); err != nil {
					t.Fatalf("%s: %v", step, err)
				}
				live[oid] = r
				oids = append(oids, oid)
			}
			pick := func() (uint64, geom.Rect) {
				i := rng.Intn(len(oids))
				oid := oids[i]
				oids[i] = oids[len(oids)-1]
				oids = oids[:len(oids)-1]
				return oid, live[oid]
			}
			check("empty")
			if !k.joinable {
				// Greene's degeneracy: more nested squares than a page holds.
				for i := 0; i < CapacityForPageSize(testPageSize)+6; i++ {
					d := float64(i + 1)
					insert(fmt.Sprintf("nested square %d", i), geom.R(50-d, 50-d, 50+d, 50+d))
					check(fmt.Sprintf("nested square %d", i))
				}
			}
			for i := 0; i < k.steps; i++ {
				var step string
				switch c := rng.Intn(10); {
				case len(oids) < 20 || c < 4:
					step = fmt.Sprintf("step %d insert", i)
					insert(step, randRect(rng, 100, 6))
				case c < 6:
					oid, r := pick()
					step = fmt.Sprintf("step %d delete %d", i, oid)
					if err := both(step, func(d diffTree) error { return d.Delete(r, oid) }); err != nil {
						t.Fatalf("%s: %v", step, err)
					}
					delete(live, oid)
				case c < 7:
					step = fmt.Sprintf("step %d delete of a missing entry", i)
					err := both(step, func(d diffTree) error { return d.Delete(geom.R(1, 1, 2, 2), 1<<40) })
					if !errors.Is(err, ErrNotFound) {
						t.Fatalf("%s: %v", step, err)
					}
				case c < 8:
					step = fmt.Sprintf("step %d batch", i)
					batch := make([]Record, 1+rng.Intn(15))
					for j := range batch {
						batch[j] = Record{Rect: randRect(rng, 100, 6), OID: next}
						live[next] = batch[j].Rect
						oids = append(oids, next)
						next++
					}
					if err := both(step, func(d diffTree) error { return d.InsertBatch(batch) }); err != nil {
						t.Fatalf("%s: %v", step, err)
					}
				default:
					oid, r := pick()
					to := randRect(rng, 100, 6)
					step = fmt.Sprintf("step %d update %d", i, oid)
					if err := both(step, func(d diffTree) error { return move(d, r, to, oid) }); err != nil {
						t.Fatalf("%s: %v", step, err)
					}
					live[oid] = to
					oids = append(oids, oid)
				}
				check(step)
			}
			if paged.Len() != len(live) || arena.Len() != len(live) {
				t.Fatalf("Len: paged %d, arena %d, want %d", paged.Len(), arena.Len(), len(live))
			}
			if !k.joinable && !sawChain {
				t.Fatal("the R+ stream never produced an overflow-chained node")
			}
		})
	}
}

// TestSearchAllocsIndependentOfAccesses: a search on a node arena — a
// tree built there or one adopted from a checkpoint image — allocates a
// small constant (the traversal stack and the pinned-snapshot closure),
// however many nodes it visits. On a page file every visited node is an allocation
// and a decode.
func TestSearchAllocsIndependentOfAccesses(t *testing.T) {
	tree, err := NewArena(testPageSize, Options{Split: SplitRStar, RStarChooseSubtree: true, ForcedReinsert: true}, "R*-tree")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	recs := make([]Record, 3000)
	for i := range recs {
		recs[i] = Record{Rect: randRect(rng, 100, 2), OID: uint64(i + 1)}
	}
	if err := tree.InsertBatch(recs); err != nil {
		t.Fatal(err)
	}
	flat, err := OpenFlatBytes(flatEncode(t, tree, 1))
	if err != nil {
		t.Fatal(err)
	}
	adopted, err := Adopt(flat, testPageSize, rstarOpts, "R*-tree")
	if err != nil {
		t.Fatal(err)
	}
	type searchFn func(context.Context, func(geom.Rect) bool, func(geom.Rect) bool, func(geom.Rect, uint64) bool) (TraversalStats, error)
	for name, search := range map[string]searchFn{"arena tree": tree.SearchCtx, "adopted image": adopted.SearchCtx} {
		var accesses [2]uint64
		var allocs [2]float64
		for i, w := range []geom.Rect{geom.R(50, 50, 51, 51), geom.R(0, 0, 100, 100)} {
			pred := func(r geom.Rect) bool { return r.Intersects(w) }
			emit := func(geom.Rect, uint64) bool { return true }
			allocs[i] = testing.AllocsPerRun(20, func() {
				ts, err := search(context.Background(), pred, pred, emit)
				if err != nil {
					t.Fatal(err)
				}
				accesses[i] = ts.NodeAccesses
			})
		}
		if accesses[1] < 20*accesses[0] {
			t.Fatalf("%s: the full scan reads %d nodes, the point window %d: not far enough apart to tell", name, accesses[1], accesses[0])
		}
		if allocs[0] != allocs[1] || allocs[1] > 3 {
			t.Fatalf("%s: %v allocations for %d accesses, %v for %d: want the same small constant",
				name, allocs[0], accesses[0], allocs[1], accesses[1])
		}
	}
}
