package rtree

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"
	"testing/iotest"

	"mbrtopo/internal/geom"
	"mbrtopo/internal/pagefile"
)

// FuzzFlatDecode feeds arbitrary bytes to the flat-snapshot reader.
// The contract under fuzzing: OpenFlatBytes either returns an error or
// an image that is refused by adoption (another page size) or adopted
// into a tree on which every read operation (window query, kNN, join
// against itself) terminates without panicking — corrupted input must
// never produce a crash or an out-of-bounds access. The same bytes
// arriving one at a time (iotest.OneByteReader) must decode to the same
// tree, or fail as corrupt too. The seed corpus is real snapshots of all
// three tree kinds plus an empty one, and each of them with a header
// that lies about its size or its node count.
func FuzzFlatDecode(f *testing.F) {
	addTree := func(n int) {
		rng := rand.New(rand.NewSource(int64(n)))
		rt, _ := newTestRTree()
		rp, _ := NewRPlusArena(testPageSize)
		rs, _ := newTestRStar()
		for gen, tree := range []searcher{rt, rp, rs} {
			for i := 0; i < n; i++ {
				_ = tree.Insert(randFuzzRect(rng), uint64(i))
			}
			var buf bytes.Buffer
			if err := tree.PinFlat(uint64(gen + 1)).Encode(&buf); err == nil {
				f.Add(buf.Bytes())
				lies := lyingImages(buf.Bytes())
				for _, lie := range slices.Sorted(maps.Keys(lies)) {
					f.Add(lies[lie])
				}
			}
		}
	}
	addTree(0)
	addTree(40)
	addTree(200)
	f.Add([]byte("MBRFLAT1"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		image, err := OpenFlatBytes(data)
		trickled, terr := OpenFlat(iotest.OneByteReader(bytes.NewReader(data)))
		if err != nil {
			if !errors.Is(err, pagefile.ErrCorrupt) || !errors.Is(terr, pagefile.ErrCorrupt) {
				t.Fatalf("refused as %v from memory, as %v one byte at a time; want ErrCorrupt both", err, terr)
			}
			return
		}
		if terr != nil {
			t.Fatalf("accepted from memory, refused one byte at a time: %v", terr)
		}
		if diff := sameFlat(image, trickled); diff != "" {
			t.Fatalf("one byte at a time decodes another tree: %s", diff)
		}
		_ = image.Records()
		ft, err := adoptImage(image)
		if err != nil {
			return
		}
		// The decoder accepted the input: every read path must behave.
		all := func(geom.Rect) bool { return true }
		n := 0
		if _, err := ft.SearchCtx(context.Background(), all, all, func(geom.Rect, uint64) bool {
			n++
			return n < 10000
		}); err != nil {
			t.Fatalf("search on accepted snapshot: %v", err)
		}
		if _, _, err := ft.NearestCtx(context.Background(), geom.Point{X: 1, Y: 2}, 3); err != nil {
			t.Fatalf("kNN on accepted snapshot: %v", err)
		}
		tr, ok := ft.(*Tree)
		if !ok {
			return // an R+-tree image: the join takes covering trees only
		}
		m := 0
		if _, err := joinWith(context.Background(), tr, tr, touchingPreds,
			func(Hit, Hit) bool {
				m++
				return m < 10000
			}, JoinOptions{Workers: 1}, true); err != nil {
			t.Fatalf("self-join on accepted snapshot: %v", err)
		}
	})
}

// sameFlat says how two decodes of an image differ: metadata, or a
// node's level, cost, entries or children, in file order.
func sameFlat(a, b *FlatTree) string {
	meta := func(f *FlatTree) string {
		return fmt.Sprint(f.name, f.covering, f.gen, f.size, f.depth, f.bounds, f.hasBound, f.minCap, len(f.nodes))
	}
	if ma, mb := meta(a), meta(b); ma != mb {
		return "metadata " + ma + " vs " + mb
	}
	order := func(f *FlatTree) map[*node]int {
		at := make(map[*node]int, len(f.nodes))
		for k, n := range f.nodes {
			at[n] = k
		}
		return at
	}
	ka, kb := order(a), order(b)
	if ka[a.root] != kb[b.root] {
		return fmt.Sprintf("root is record %d vs %d", ka[a.root], kb[b.root])
	}
	for k := range a.nodes {
		na, nb := a.nodes[k], b.nodes[k]
		if na.level != nb.level || na.cost != nb.cost || len(na.entries) != len(nb.entries) {
			return fmt.Sprintf("record %d: level, cost or count differ", k)
		}
		for i, ea := range na.entries {
			eb := nb.entries[i]
			if ea.Rect != eb.Rect || ea.OID != eb.OID || (ea.Child == nil) != (eb.Child == nil) ||
				(ea.Child != nil && ka[ea.Child] != kb[eb.Child]) {
				return fmt.Sprintf("record %d entry %d differs", k, i)
			}
		}
	}
	return ""
}

func randFuzzRect(rng *rand.Rand) geom.Rect {
	w := 0.01 + rng.Float64()*5
	h := 0.01 + rng.Float64()*5
	x := rng.Float64() * 95
	y := rng.Float64() * 95
	return geom.R(x, y, x+w, y+h)
}
