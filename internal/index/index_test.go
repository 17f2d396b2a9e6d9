package index

import (
	"bytes"
	"context"
	"math/rand"
	"sort"
	"testing"

	"mbrtopo/internal/geom"
	"mbrtopo/internal/rtree"
)

func testItems(n int, seed int64) []Item {
	rng := rand.New(rand.NewSource(seed))
	items := make([]Item, n)
	for i := range items {
		x := rng.Float64() * 90
		y := rng.Float64() * 90
		items[i] = Item{Rect: geom.R(x, y, x+0.5+rng.Float64()*6, y+0.5+rng.Float64()*6), OID: uint64(i + 1)}
	}
	return items
}

func TestKindBasics(t *testing.T) {
	if KindRTree.String() != "R-tree" || KindRPlus.String() != "R+-tree" || KindRStar.String() != "R*-tree" {
		t.Fatal("kind names broken")
	}
	if Kind(9).String() != "index.Kind(9)" {
		t.Fatal("unknown kind name broken")
	}
	if len(AllKinds()) != 3 {
		t.Fatal("AllKinds broken")
	}
	if _, err := NewWithPageSize(Kind(9), 512); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

// TestPageSizeFitsTheImage: a tree is only built at a page size whose
// nodes its checkpoint image can record. An MBRFLAT1 record counts a
// node's entries in a uint16, and an R+ node may hold 16 pages' worth,
// so 4095 entries a page is the most: page size 8 + 40 × 4095. A larger
// one is refused by every constructor, new or adopting; before, a tree
// of 70 000 entries a page wrote an image that OpenFlatBytes rejected,
// which made the next boot fail. At the largest page size a bulk-loaded
// tree's image reopens and is adopted as the same tree.
func TestPageSizeFitsTheImage(t *testing.T) {
	const largest = 8 + 40*4095
	for _, kind := range AllKinds() {
		for _, size := range []int{largest + 40, 8 + 40*70000} {
			if _, err := NewWithPageSize(kind, size); err == nil {
				t.Errorf("%v: page size %d accepted", kind, size)
			}
		}
	}
	idx, err := NewWithPageSize(KindRStar, largest)
	if err != nil {
		t.Fatal(err)
	}
	if err := LoadBulk(idx, testItems(5000, 3)); err != nil {
		t.Fatal(err)
	}
	var image bytes.Buffer
	if err := WriteFlat(idx, &image, 1); err != nil {
		t.Fatal(err)
	}
	flat, err := rtree.OpenFlatBytes(image.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	adopted, err := Adopt(KindRStar, largest, flat)
	if err != nil {
		t.Fatal(err)
	}
	if adopted.Len() != 5000 || adopted.Height() != idx.Height() {
		t.Fatalf("adopted %d entries at height %d, want 5000 at %d", adopted.Len(), adopted.Height(), idx.Height())
	}
	if _, err := Adopt(KindRStar, largest+40, flat); err == nil {
		t.Fatalf("adopted at page size %d", largest+40)
	}
}

func TestSerialPages(t *testing.T) {
	if SerialPages(10000, 50) != 200 {
		t.Fatalf("paper baseline: %d", SerialPages(10000, 50))
	}
	if SerialPages(10001, 50) != 201 || SerialPages(0, 50) != 0 || SerialPages(10, 0) != 0 {
		t.Fatal("SerialPages edge cases broken")
	}
}

func TestNewAndLoadAllKinds(t *testing.T) {
	items := testItems(200, 1)
	for _, kind := range AllKinds() {
		idx, err := New(kind)
		if err != nil {
			t.Fatal(err)
		}
		if err := Load(idx, items); err != nil {
			t.Fatal(err)
		}
		if idx.Len() != 200 || idx.Name() != kind.String() {
			t.Fatalf("%v: len=%d name=%q", kind, idx.Len(), idx.Name())
		}
		if b, ok := idx.Bounds(); !ok || !b.Valid() {
			t.Fatalf("%v: bounds %v %v", kind, b, ok)
		}
		nn, _, err := idx.NearestCtx(context.Background(), geom.Point{X: 45, Y: 45}, 3)
		if err != nil || len(nn) != 3 {
			t.Fatalf("%v: nearest %v %v", kind, nn, err)
		}
	}
}

func TestNewPacked(t *testing.T) {
	items := testItems(500, 2)
	for _, kind := range []Kind{KindRTree, KindRStar} {
		idx, err := NewPacked(kind, 512, items)
		if err != nil {
			t.Fatal(err)
		}
		if idx.Len() != 500 {
			t.Fatalf("%v packed: len=%d", kind, idx.Len())
		}
		// Query parity with an incrementally built index.
		grown, err := NewWithPageSize(kind, 512)
		if err != nil {
			t.Fatal(err)
		}
		if err := Load(grown, items); err != nil {
			t.Fatal(err)
		}
		w := geom.R(20, 20, 50, 50)
		pred := func(r geom.Rect) bool { return r.Intersects(w) }
		collect := func(ix Index) []uint64 {
			var out []uint64
			seen := map[uint64]bool{}
			_ = ix.Search(pred, pred, func(_ geom.Rect, oid uint64) bool {
				if !seen[oid] {
					seen[oid] = true
					out = append(out, oid)
				}
				return true
			})
			sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
			return out
		}
		a, b := collect(idx), collect(grown)
		if len(a) != len(b) {
			t.Fatalf("%v: packed window %d vs grown %d", kind, len(a), len(b))
		}
	}
	if _, err := NewPacked(KindRPlus, 512, items); err == nil {
		t.Fatal("R+ packing should be rejected")
	}
}
