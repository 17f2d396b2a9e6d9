package index

import (
	"context"
	"math/rand"
	"sort"
	"testing"

	"mbrtopo/internal/geom"
	"mbrtopo/internal/pagefile"
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
	if _, err := NewOnFile(Kind(9), pagefile.NewMemFile(512)); err == nil {
		t.Fatal("unknown kind accepted by NewOnFile")
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
