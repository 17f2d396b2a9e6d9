package rtree

import (
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"mbrtopo/internal/geom"
)

const testPageSize = 512 // capacity (512-8)/40 = 12 entries

// newTestRTree and newTestRStar build trees with the paper's settings
// at testPageSize.
func newTestRTree() (*Tree, error) {
	return NewArena(testPageSize, Options{Split: SplitQuadratic}, "R-tree")
}

func newTestRStar() (*Tree, error) {
	return NewArena(testPageSize, rstarOpts, "R*-tree")
}

func randRect(rng *rand.Rand, world float64, maxSide float64) geom.Rect {
	w := 0.01 + rng.Float64()*maxSide
	h := 0.01 + rng.Float64()*maxSide
	x := rng.Float64() * (world - w)
	y := rng.Float64() * (world - h)
	return geom.R(x, y, x+w, y+h)
}

// searcher is the common interface of the three variants.
type searcher interface {
	Insert(geom.Rect, uint64) error
	Delete(geom.Rect, uint64) error
	Search(nodePred, leafPred func(geom.Rect) bool, emit func(geom.Rect, uint64) bool) error
	Len() int
	Height() int
	Name() string
	CoveringNodeRects() bool
	Bounds() (geom.Rect, bool)
	CheckInvariants() error
	PinFlat(uint64) *FlatImage
}

// move replaces an object's rectangle the way every caller of the
// index does: a delete, then an insert.
func move(tree interface {
	Insert(geom.Rect, uint64) error
	Delete(geom.Rect, uint64) error
}, from, to geom.Rect, oid uint64) error {
	if err := tree.Delete(from, oid); err != nil {
		return err
	}
	return tree.Insert(to, oid)
}

func makeTrees(t *testing.T) map[string]searcher {
	t.Helper()
	out := map[string]searcher{}
	rt, err := newTestRTree()
	if err != nil {
		t.Fatal(err)
	}
	out["rtree"] = rt
	lt, err := NewArena(testPageSize, Options{Split: SplitLinear}, "R-tree/linear")
	if err != nil {
		t.Fatal(err)
	}
	out["linear"] = lt
	rs, err := newTestRStar()
	if err != nil {
		t.Fatal(err)
	}
	out["rstar"] = rs
	rp, err := NewRPlusArena(testPageSize)
	if err != nil {
		t.Fatal(err)
	}
	out["rplus"] = rp
	return out
}

func checkInv(t *testing.T, name string, s searcher) {
	t.Helper()
	if err := s.CheckInvariants(); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
}

// windowQuery runs an intersects-window search and returns the sorted
// unique OIDs.
func windowQuery(t *testing.T, s searcher, w geom.Rect) []uint64 {
	t.Helper()
	seen := map[uint64]bool{}
	pred := func(r geom.Rect) bool { return r.Intersects(w) }
	err := s.Search(pred, pred, func(_ geom.Rect, oid uint64) bool {
		seen[oid] = true
		return true
	})
	if err != nil {
		t.Fatalf("%s: search: %v", s.Name(), err)
	}
	out := make([]uint64, 0, len(seen))
	for oid := range seen {
		out = append(out, oid)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func bruteWindow(data map[uint64]geom.Rect, w geom.Rect) []uint64 {
	var out []uint64
	for oid, r := range data {
		if r.Intersects(w) {
			out = append(out, oid)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func eqOIDs(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestInsertSearchAgainstBruteForce loads each variant with random
// rectangles, checks invariants, and compares window queries with a
// brute-force scan.
func TestInsertSearchAgainstBruteForce(t *testing.T) {
	for name, tree := range makeTrees(t) {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(17))
			data := map[uint64]geom.Rect{}
			for i := uint64(1); i <= 600; i++ {
				r := randRect(rng, 100, 8)
				if err := tree.Insert(r, i); err != nil {
					t.Fatalf("insert %d: %v", i, err)
				}
				data[i] = r
			}
			if tree.Len() != 600 {
				t.Fatalf("Len = %d", tree.Len())
			}
			if tree.Height() < 2 {
				t.Fatalf("height = %d, tree did not grow", tree.Height())
			}
			checkInv(t, name, tree)
			for q := 0; q < 200; q++ {
				w := randRect(rng, 100, 20)
				got := windowQuery(t, tree, w)
				want := bruteWindow(data, w)
				if !eqOIDs(got, want) {
					t.Fatalf("window %v: got %d oids, want %d", w, len(got), len(want))
				}
			}
		})
	}
}

// TestDeleteAgainstBruteForce interleaves inserts and deletes and
// verifies structure and query results throughout.
func TestDeleteAgainstBruteForce(t *testing.T) {
	for name, tree := range makeTrees(t) {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(23))
			data := map[uint64]geom.Rect{}
			next := uint64(1)
			for round := 0; round < 6; round++ {
				for i := 0; i < 150; i++ {
					r := randRect(rng, 100, 6)
					if err := tree.Insert(r, next); err != nil {
						t.Fatalf("insert: %v", err)
					}
					data[next] = r
					next++
				}
				// Delete a random half of current objects.
				var oids []uint64
				for oid := range data {
					oids = append(oids, oid)
				}
				sort.Slice(oids, func(i, j int) bool { return oids[i] < oids[j] })
				rng.Shuffle(len(oids), func(i, j int) { oids[i], oids[j] = oids[j], oids[i] })
				for _, oid := range oids[:len(oids)/2] {
					if err := tree.Delete(data[oid], oid); err != nil {
						t.Fatalf("delete %d: %v", oid, err)
					}
					delete(data, oid)
				}
				if tree.Len() != len(data) {
					t.Fatalf("Len = %d, want %d", tree.Len(), len(data))
				}
				checkInv(t, name, tree)
				for q := 0; q < 40; q++ {
					w := randRect(rng, 100, 25)
					if got, want := windowQuery(t, tree, w), bruteWindow(data, w); !eqOIDs(got, want) {
						t.Fatalf("round %d window %v: got %d, want %d", round, w, len(got), len(want))
					}
				}
			}
		})
	}
}

func TestDeleteMissing(t *testing.T) {
	for name, tree := range makeTrees(t) {
		r := geom.R(0, 0, 1, 1)
		if err := tree.Delete(r, 42); !errors.Is(err, ErrNotFound) {
			t.Errorf("%s: delete missing: %v", name, err)
		}
		if err := tree.Insert(r, 42); err != nil {
			t.Fatal(err)
		}
		if err := tree.Delete(r, 42); err != nil {
			t.Errorf("%s: delete present: %v", name, err)
		}
		if tree.Len() != 0 {
			t.Errorf("%s: Len after delete = %d", name, tree.Len())
		}
		// Deleting with the right oid but wrong rect must fail.
		if err := tree.Insert(r, 7); err != nil {
			t.Fatal(err)
		}
		if err := tree.Delete(geom.R(0, 0, 2, 2), 7); !errors.Is(err, ErrNotFound) {
			t.Errorf("%s: delete wrong rect: %v", name, err)
		}
		_ = name
	}
}

// TestDuplicateRegistrations: one oid may name several rectangles, and
// one (rect, oid) pair may be inserted more than once; every tree kind
// stores what it was given. A delete removes one registration — on an
// R+-tree, one from each leaf the rectangle crosses — the invariants
// accept every such state, and the image yields each pair as many times
// as it is stored, which is what a rebuild at another page size (and
// the decoder's size check) counts on. The background objects make the
// R+-tree deep enough for the pair to cross leaves.
func TestDuplicateRegistrations(t *testing.T) {
	a, b := geom.R(20, 20, 80, 80), geom.R(30, 5, 31, 6)
	type op struct {
		del  bool
		rect geom.Rect
	}
	for _, row := range []struct {
		name  string
		ops   []op
		pairs map[geom.Rect]int // registrations of oid 7 left, by rectangle
	}{
		{"a pair inserted twice, deleted once", []op{{false, a}, {false, a}, {true, a}}, map[geom.Rect]int{a: 1}},
		{"two rectangles under one oid", []op{{false, a}, {false, b}}, map[geom.Rect]int{a: 1, b: 1}},
		{"a pair stored twice", []op{{false, a}, {false, a}}, map[geom.Rect]int{a: 2}},
	} {
		for name, tree := range makeTrees(t) {
			label := row.name + "/" + name
			rng := rand.New(rand.NewSource(5))
			for oid := uint64(1000); oid < 1100; oid++ {
				if err := tree.Insert(randRect(rng, 100, 8), oid); err != nil {
					t.Fatal(err)
				}
			}
			for _, o := range row.ops {
				var err error
				if o.del {
					err = tree.Delete(o.rect, 7)
				} else {
					err = tree.Insert(o.rect, 7)
				}
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
			}
			want := 100
			for _, k := range row.pairs {
				want += k
			}
			if tree.Len() != want {
				t.Fatalf("%s: Len %d, want %d", label, tree.Len(), want)
			}
			checkInv(t, label, tree)
			f, err := OpenFlatBytes(flatEncode(t, tree, 1))
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			recs := f.Records()
			got := map[geom.Rect]int{}
			for _, r := range recs {
				if r.OID == 7 {
					got[r.Rect]++
				}
			}
			if len(recs) != want || !maps.Equal(got, row.pairs) {
				t.Fatalf("%s: the image yields %d records, oid 7 as %v; want %d and %v", label, len(recs), got, want, row.pairs)
			}
			for r, k := range row.pairs {
				for ; k > 0; k-- {
					if err := tree.Delete(r, 7); err != nil {
						t.Fatalf("%s: deleting what is stored: %v", label, err)
					}
				}
				if err := tree.Delete(r, 7); !errors.Is(err, ErrNotFound) {
					t.Fatalf("%s: deleting %v once more than it was stored: %v", label, r, err)
				}
			}
			if tree.Len() != 100 {
				t.Fatalf("%s: Len %d after deleting oid 7, want 100", label, tree.Len())
			}
			checkInv(t, label, tree)
		}
	}
}

func TestInsertDegenerateRect(t *testing.T) {
	for name, tree := range makeTrees(t) {
		if err := tree.Insert(geom.R(1, 1, 1, 2), 1); err == nil {
			t.Errorf("%s: degenerate rect accepted", name)
		}
	}
}

// TestSearchEarlyStop: emit returning false must abort the traversal.
func TestSearchEarlyStop(t *testing.T) {
	for name, tree := range makeTrees(t) {
		rng := rand.New(rand.NewSource(3))
		for i := uint64(1); i <= 200; i++ {
			if err := tree.Insert(randRect(rng, 50, 5), i); err != nil {
				t.Fatal(err)
			}
		}
		calls := 0
		all := func(geom.Rect) bool { return true }
		err := tree.Search(all, all, func(geom.Rect, uint64) bool {
			calls++
			return calls < 10
		})
		if err != nil {
			t.Fatal(err)
		}
		if calls != 10 {
			t.Errorf("%s: early stop after %d emits", name, calls)
		}
	}
}

func TestCapacityForPageSize(t *testing.T) {
	if got := CapacityForPageSize(2048); got != 51 {
		t.Errorf("capacity(2048) = %d", got)
	}
	// The paper's setting: 50 entries per page (see index.PaperPageSize).
	if got := CapacityForPageSize(2008); got != 50 {
		t.Errorf("capacity(2008) = %d", got)
	}
}

// TestSearchIOAccounting: the number of page reads during a search
// equals the number of visited nodes, and pruning reduces it.
func TestSearchIOAccounting(t *testing.T) {
	tree, err := newTestRTree()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	for i := uint64(1); i <= 500; i++ {
		if err := tree.Insert(randRect(rng, 100, 3), i); err != nil {
			t.Fatal(err)
		}
	}
	tree.ResetIOStats()
	all := func(geom.Rect) bool { return true }
	if err := tree.Search(all, all, func(geom.Rect, uint64) bool { return true }); err != nil {
		t.Fatal(err)
	}
	full := tree.IOStats().Reads
	if full < 40 {
		t.Fatalf("full scan read only %d pages", full)
	}
	tree.ResetIOStats()
	w := geom.R(10, 10, 12, 12)
	pred := func(r geom.Rect) bool { return r.Intersects(w) }
	if err := tree.Search(pred, pred, func(geom.Rect, uint64) bool { return true }); err != nil {
		t.Fatal(err)
	}
	window := tree.IOStats().Reads
	if window == 0 || window*3 > full {
		t.Fatalf("window query read %d pages vs %d full", window, full)
	}
	if tree.IOStats().Writes != 0 {
		t.Fatal("search must not write")
	}
}

// TestRPlusZeroOverlap: sibling regions at every level never share
// interior (checked by CheckInvariants), and duplicates returned by
// search refer to identical rectangles.
func TestRPlusDuplicatesConsistent(t *testing.T) {
	tree, err := NewRPlusArena(testPageSize)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(31))
	data := map[uint64]geom.Rect{}
	for i := uint64(1); i <= 400; i++ {
		r := randRect(rng, 100, 15) // large rects force duplication
		if err := tree.Insert(r, i); err != nil {
			t.Fatal(err)
		}
		data[i] = r
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	all := func(geom.Rect) bool { return true }
	dups := 0
	seen := map[uint64]geom.Rect{}
	err = tree.Search(all, all, func(r geom.Rect, oid uint64) bool {
		if prev, ok := seen[oid]; ok {
			dups++
			if prev != r {
				t.Fatalf("oid %d reported with different rects %v / %v", oid, prev, r)
			}
		}
		seen[oid] = r
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if dups == 0 {
		t.Fatal("expected duplicate registrations with large rectangles")
	}
	for oid, r := range seen {
		if data[oid] != r {
			t.Fatalf("oid %d rect %v, want %v", oid, r, data[oid])
		}
	}
}

// TestHeightGrowth: the R+-tree may be taller than the R-tree for the
// same data (duplicate entries), matching the paper's observation.
func TestHeightGrowth(t *testing.T) {
	trees := makeTrees(t)
	rng := rand.New(rand.NewSource(77))
	rects := make([]geom.Rect, 300)
	for i := range rects {
		rects[i] = randRect(rng, 100, 10)
	}
	for name, tree := range trees {
		for i, r := range rects {
			if err := tree.Insert(r, uint64(i+1)); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		if tree.Height() < 2 || tree.Len() != 300 {
			t.Fatalf("%s: height %d len %d", name, tree.Height(), tree.Len())
		}
	}
}

func TestSplitAlgorithmString(t *testing.T) {
	if SplitQuadratic.String() != "quadratic" || SplitLinear.String() != "linear" ||
		SplitRStar.String() != "rstar" {
		t.Fatal("split names broken")
	}
	if fmt.Sprint(SplitAlgorithm(9)) != "SplitAlgorithm(9)" {
		t.Fatal("unknown split name broken")
	}
}

// TestBoundsReporting: Bounds returns the union of stored rects.
func TestBoundsReporting(t *testing.T) {
	for name, tree := range makeTrees(t) {
		if _, ok := tree.Bounds(); ok {
			t.Fatalf("%s: empty tree has bounds", name)
		}
		_ = tree.Insert(geom.R(1, 2, 3, 4), 1)
		_ = tree.Insert(geom.R(-5, 0, 0, 1), 2)
		b, ok := tree.Bounds()
		if !ok || b != geom.R(-5, 0, 3, 4) {
			t.Fatalf("%s: bounds = %v %v", name, b, ok)
		}
	}
}

// TestRPlusBoundsKept: an R+-tree's internal entries are partition
// regions, so its data MBR is kept by the mutations instead of read off
// the root. Over random inserts and deletes — the deletes aimed half
// the time at a rectangle reaching an edge of the MBR, the one case
// that can shrink it — Bounds equals the brute-force MBR after every
// step and reads no page.
func TestRPlusBoundsKept(t *testing.T) {
	tree, err := NewRPlusArena(testPageSize)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(24))
	live := map[uint64]geom.Rect{}
	var oids []uint64
	brute := func() (geom.Rect, bool) {
		var b geom.Rect
		for i, oid := range oids {
			b = covering(b, i > 0, live[oid])
		}
		return b, len(oids) > 0
	}
	onEdge := func(r, b geom.Rect) bool {
		return r.Min.X == b.Min.X || r.Min.Y == b.Min.Y || r.Max.X == b.Max.X || r.Max.Y == b.Max.Y
	}
	step, edgeDeletes := 0, 0
	check := func() {
		t.Helper()
		reads := tree.IOStats().Reads
		got, ok := tree.Bounds()
		if d := tree.IOStats().Reads - reads; d != 0 {
			t.Fatalf("step %d: Bounds read %d pages of a tree of %d objects", step, d, len(oids))
		}
		if want, wantOK := brute(); ok != wantOK || (ok && got != want) {
			t.Fatalf("step %d: Bounds = %v %v, brute force %v %v", step, got, ok, want, wantOK)
		}
	}
	remove := func() {
		t.Helper()
		at := rng.Intn(len(oids))
		b, _ := brute()
		if rng.Intn(2) == 0 {
			at = slices.IndexFunc(oids, func(oid uint64) bool { return onEdge(live[oid], b) })
		}
		oid := oids[at]
		if onEdge(live[oid], b) {
			edgeDeletes++
		}
		if err := tree.Delete(live[oid], oid); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		delete(live, oid)
		oids = slices.Delete(oids, at, at+1)
	}
	for ; step < 2000; step++ {
		if len(oids) == 0 || rng.Intn(5) < 3 {
			oid := uint64(step + 1)
			r := randRect(rng, 100, 6)
			if err := tree.Insert(r, oid); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			live[oid] = r
			oids = append(oids, oid)
		} else {
			remove()
		}
		check()
	}
	for ; len(oids) > 0; step++ { // down to empty: the MBR goes with the last object
		remove()
		check()
	}
	if edgeDeletes < 100 {
		t.Fatalf("only %d edge-touching deletes: the trace missed its case", edgeDeletes)
	}
	// The image header carries the MBR across a checkpoint.
	for i := 0; i < 50; i++ {
		if err := tree.Insert(randRect(rng, 100, 6), uint64(5000+i)); err != nil {
			t.Fatal(err)
		}
	}
	flat, err := OpenFlatBytes(flatEncode(t, tree, 1))
	if err != nil {
		t.Fatal(err)
	}
	adopted, err := AdoptRPlus(flat, testPageSize)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := tree.Bounds()
	if got, ok := adopted.Bounds(); !ok || got != want || adopted.IOStats().Reads != 0 {
		t.Fatalf("adopted Bounds = %v %v after %d reads, want %v", got, ok, adopted.IOStats().Reads, want)
	}

}

// TestUpdate moves entries and verifies structure and queries.
func TestUpdate(t *testing.T) {
	for name, tree := range makeTrees(t) {
		rng := rand.New(rand.NewSource(12))
		data := map[uint64]geom.Rect{}
		for i := uint64(1); i <= 300; i++ {
			r := randRect(rng, 100, 5)
			if err := tree.Insert(r, i); err != nil {
				t.Fatal(err)
			}
			data[i] = r
		}
		for i := uint64(1); i <= 300; i += 3 {
			nr := randRect(rng, 100, 5)
			if err := move(tree, data[i], nr, i); err != nil {
				t.Fatalf("%s: update %d: %v", name, i, err)
			}
			data[i] = nr
		}
		checkInv(t, name, tree)
		if tree.Len() != 300 {
			t.Fatalf("%s: Len=%d after updates", name, tree.Len())
		}
		for q := 0; q < 50; q++ {
			w := randRect(rng, 100, 20)
			if got, want := windowQuery(t, tree, w), bruteWindow(data, w); !eqOIDs(got, want) {
				t.Fatalf("%s: window after updates: %d vs %d", name, len(got), len(want))
			}
		}
	}
}

// TestSoakMixedWorkload is a longer randomized soak across all
// variants: inserts, deletes, updates and queries with periodic
// invariant checks.
func TestSoakMixedWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	for name, tree := range makeTrees(t) {
		rng := rand.New(rand.NewSource(77))
		data := map[uint64]geom.Rect{}
		next := uint64(1)
		oids := func() []uint64 {
			out := make([]uint64, 0, len(data))
			for oid := range data {
				out = append(out, oid)
			}
			sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
			return out
		}
		for step := 0; step < 4000; step++ {
			switch op := rng.Intn(10); {
			case op < 5 || len(data) == 0: // insert
				r := randRect(rng, 100, 6)
				if err := tree.Insert(r, next); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				data[next] = r
				next++
			case op < 7: // delete
				ids := oids()
				oid := ids[rng.Intn(len(ids))]
				if err := tree.Delete(data[oid], oid); err != nil {
					t.Fatalf("%s: delete: %v", name, err)
				}
				delete(data, oid)
			case op < 8: // update
				ids := oids()
				oid := ids[rng.Intn(len(ids))]
				nr := randRect(rng, 100, 6)
				if err := move(tree, data[oid], nr, oid); err != nil {
					t.Fatalf("%s: update: %v", name, err)
				}
				data[oid] = nr
			default: // query
				w := randRect(rng, 100, 15)
				if got, want := windowQuery(t, tree, w), bruteWindow(data, w); !eqOIDs(got, want) {
					t.Fatalf("%s step %d: window mismatch %d vs %d", name, step, len(got), len(want))
				}
			}
			if step%1000 == 999 {
				checkInv(t, name, tree)
			}
		}
		checkInv(t, name, tree)
	}
}
