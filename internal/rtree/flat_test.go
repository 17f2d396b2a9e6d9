package rtree

import (
	"bytes"
	"context"
	"math/rand"
	"testing"

	"mbrtopo/internal/geom"
	"mbrtopo/internal/pagefile"
)

// flatEncode serializes any of the test trees as a flat snapshot.
func flatEncode(t *testing.T, s searcher, gen uint64) []byte {
	t.Helper()
	var buf bytes.Buffer
	var err error
	switch v := s.(type) {
	case *Tree:
		err = v.WriteFlat(&buf, gen)
	case *RPlusTree:
		err = v.WriteFlat(&buf, gen)
	default:
		t.Fatalf("%T has no WriteFlat", s)
	}
	if err != nil {
		t.Fatalf("WriteFlat: %v", err)
	}
	return buf.Bytes()
}

// flatTree is what an adopted image is searched through in these tests.
type flatTree interface {
	ctxSearcher
	NearestCtx(context.Context, geom.Point, int) ([]Neighbour, TraversalStats, error)
}

// adoptImage opens a decoded image the one way production reads one: as
// the tree that adopts it, at the page size the test trees are built
// with. The options matter to later writes only.
func adoptImage(f *FlatTree) (flatTree, error) {
	if f.CoveringNodeRects() {
		return Adopt(f, testPageSize, Options{}, f.Name())
	}
	return AdoptRPlus(f, testPageSize)
}

func mustAdopt(t *testing.T, f *FlatTree) flatTree {
	t.Helper()
	tr, err := adoptImage(f)
	if err != nil {
		t.Fatalf("adopting the %s image: %v", f.Name(), err)
	}
	return tr
}

func collect(t *testing.T, s interface {
	SearchCtx(context.Context, func(geom.Rect) bool, func(geom.Rect) bool, func(geom.Rect, uint64) bool) (TraversalStats, error)
}, w geom.Rect) ([]uint64, TraversalStats) {
	t.Helper()
	pred := func(r geom.Rect) bool { return r.Intersects(w) }
	var oids []uint64
	ts, err := s.SearchCtx(context.Background(), pred, pred, func(_ geom.Rect, oid uint64) bool {
		oids = append(oids, oid)
		return true
	})
	if err != nil {
		t.Fatalf("SearchCtx: %v", err)
	}
	return oids, ts
}

// TestFlatRoundTrip pins the core contract of the flat format: the
// tree adopted from the decoded snapshot answers window queries and kNN
// with the same results, in the same order, with bit-identical
// TraversalStats, for every tree kind.
func TestFlatRoundTrip(t *testing.T) {
	for name, s := range loadedCtxTrees(t, 500) {
		data := flatEncode(t, s, 42)
		f, err := OpenFlatBytes(data)
		if err != nil {
			t.Fatalf("%s: OpenFlatBytes: %v", name, err)
		}
		if f.Generation() != 42 {
			t.Errorf("%s: generation %d, want 42", name, f.Generation())
		}
		if f.Len() != s.Len() || f.Height() != s.Height() || f.Name() != s.Name() ||
			f.CoveringNodeRects() != s.CoveringNodeRects() {
			t.Errorf("%s: metadata mismatch: flat (%d,%d,%q,%v) paged (%d,%d,%q,%v)",
				name, f.Len(), f.Height(), f.Name(), f.CoveringNodeRects(),
				s.Len(), s.Height(), s.Name(), s.CoveringNodeRects())
		}
		cs := s.(ctxSearcher)
		a := mustAdopt(t, f)
		for _, w := range []geom.Rect{
			geom.R(0, 0, 100, 100),
			geom.R(10, 10, 30, 30),
			geom.R(95, 95, 96, 96),
			geom.R(200, 200, 201, 201),
		} {
			pOids, pStats := collect(t, cs, w)
			fOids, fStats := collect(t, a, w)
			if pStats != fStats {
				t.Errorf("%s: window %v: stats diverge: paged %+v flat %+v", name, w, pStats, fStats)
			}
			if len(pOids) != len(fOids) {
				t.Fatalf("%s: window %v: %d paged vs %d flat results", name, w, len(pOids), len(fOids))
			}
			for i := range pOids {
				if pOids[i] != fOids[i] {
					t.Fatalf("%s: window %v: result %d is %d paged vs %d flat", name, w, i, pOids[i], fOids[i])
				}
			}
		}
		pn := s.(flatTree)
		for _, p := range []geom.Point{{X: 50, Y: 50}, {X: 0, Y: 100}, {X: 150, Y: -20}} {
			for _, k := range []int{1, 5, 17} {
				pNN, pStats, err := pn.NearestCtx(context.Background(), p, k)
				if err != nil {
					t.Fatalf("%s: paged kNN: %v", name, err)
				}
				fNN, fStats, err := a.NearestCtx(context.Background(), p, k)
				if err != nil {
					t.Fatalf("%s: flat kNN: %v", name, err)
				}
				if pStats != fStats {
					t.Errorf("%s: kNN %v k=%d: stats diverge: paged %+v flat %+v", name, p, k, pStats, fStats)
				}
				if len(pNN) != len(fNN) {
					t.Fatalf("%s: kNN %v k=%d: %d paged vs %d flat", name, p, k, len(pNN), len(fNN))
				}
				for i := range pNN {
					if pNN[i] != fNN[i] {
						t.Fatalf("%s: kNN %v k=%d: neighbour %d differs: %+v vs %+v", name, p, k, i, pNN[i], fNN[i])
					}
				}
			}
		}
	}
}

// TestFlatEmptyTree pins the empty-root edge case.
func TestFlatEmptyTree(t *testing.T) {
	for name, s := range makeTrees(t) {
		data := flatEncode(t, s, 1)
		f, err := OpenFlatBytes(data)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if f.Len() != 0 || f.Height() != 1 {
			t.Errorf("%s: empty snapshot has Len %d Height %d", name, f.Len(), f.Height())
		}
		if _, ok := f.Bounds(); ok {
			t.Errorf("%s: empty snapshot reports bounds", name)
		}
		oids, _ := collect(t, mustAdopt(t, f), geom.R(0, 0, 100, 100))
		if len(oids) != 0 {
			t.Errorf("%s: empty snapshot emitted %d entries", name, len(oids))
		}
	}
}

// TestFlatCorruption flips bytes across the whole file and requires
// every corruption to surface as an error (the checksums make this
// deterministic), never a panic or a silently different tree.
func TestFlatCorruption(t *testing.T) {
	trees := loadedCtxTrees(t, 120)
	data := flatEncode(t, trees["rplus"], 7)
	if _, err := OpenFlatBytes(data); err != nil {
		t.Fatalf("pristine snapshot rejected: %v", err)
	}
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		pos := rng.Intn(len(data))
		mut := append([]byte(nil), data...)
		mut[pos] ^= 1 << uint(rng.Intn(8))
		if _, err := OpenFlatBytes(mut); err == nil {
			t.Fatalf("bit flip at byte %d accepted", pos)
		}
	}
	// Truncations at every boundary class must be rejected too.
	for _, cut := range []int{0, 7, flatHeaderSize - 1, flatHeaderSize, len(data) - 1} {
		if _, err := OpenFlatBytes(data[:cut]); err == nil {
			t.Fatalf("truncation to %d bytes accepted", cut)
		}
	}
	if _, err := OpenFlatBytes(append(append([]byte(nil), data...), 0)); err == nil {
		t.Fatal("trailing garbage accepted")
	}
}

// TestFlatJoin joins the trees adopted from two flat snapshots and
// compares pairs and stats with the paged join.
func TestFlatJoin(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	build := func(seed int64) *Tree {
		tr, err := NewRStar(pagefile.NewMemFile(testPageSize))
		if err != nil {
			t.Fatal(err)
		}
		r2 := rand.New(rand.NewSource(seed))
		for i := 0; i < 300; i++ {
			if err := tr.Insert(randRect(r2, 100, 4), uint64(i)); err != nil {
				t.Fatal(err)
			}
		}
		return tr
	}
	t1, t2 := build(rng.Int63()), build(rng.Int63())
	reopen := func(tr *Tree) *Tree {
		f, err := OpenFlatBytes(flatEncode(t, tr, 1))
		if err != nil {
			t.Fatal(err)
		}
		return mustAdopt(t, f).(*Tree)
	}
	f1, f2 := reopen(t1), reopen(t2)
	intersects := func(a, b geom.Rect) bool { return a.Intersects(b) }
	run := func(a, b *Tree) (map[[2]uint64]int, TraversalStats) {
		pairs := map[[2]uint64]int{}
		ts, err := JoinCtx(context.Background(), a, b, intersects, intersects,
			func(a, b Hit) bool {
				pairs[[2]uint64{a.OID, b.OID}]++
				return true
			}, JoinOptions{Workers: 1, Intersecting: true})
		if err != nil {
			t.Fatalf("join: %v", err)
		}
		return pairs, ts
	}
	pPairs, pStats := run(t1, t2)
	fPairs, fStats := run(f1, f2)
	if pStats != fStats {
		t.Errorf("join stats diverge: paged %+v flat %+v", pStats, fStats)
	}
	if len(pPairs) != len(fPairs) {
		t.Fatalf("join found %d paged vs %d flat pairs", len(pPairs), len(fPairs))
	}
	for k, v := range pPairs {
		if fPairs[k] != v {
			t.Fatalf("pair %v: %d paged vs %d flat", k, v, fPairs[k])
		}
	}
	// Self-join of one adopted tree must work too.
	sp, ss := run(t1, t1)
	fp, fs := run(f1, f1)
	if ss != fs || len(sp) != len(fp) {
		t.Errorf("self-join diverges: paged %d pairs %+v, flat %d pairs %+v", len(sp), ss, len(fp), fs)
	}
}
