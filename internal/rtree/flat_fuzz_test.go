package rtree

import (
	"bytes"
	"context"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"mbrtopo/internal/geom"
)

// FuzzFlatDecode feeds arbitrary bytes to the flat-snapshot reader.
// The contract under fuzzing: OpenFlatBytes either returns an error or
// an image that is refused by adoption (another page size) or adopted
// into a tree on which every read operation (window query, kNN, join
// against itself) terminates without panicking — corrupted input must
// never produce a crash or an out-of-bounds access. The seed corpus is
// real snapshots of all three tree kinds plus an empty one, and each of
// them with a header that lies about its size or its node count.
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
			if err := tree.WriteFlat(&buf, uint64(gen+1)); err == nil {
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
		if err != nil {
			return
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
		pair := func(a, b geom.Rect) bool { return a.Intersects(b) }
		m := 0
		if _, err := JoinCtx(context.Background(), tr, tr, pair, pair,
			func(Hit, Hit) bool {
				m++
				return m < 10000
			}, JoinOptions{Workers: 1}); err != nil {
			t.Fatalf("self-join on accepted snapshot: %v", err)
		}
	})
}

func randFuzzRect(rng *rand.Rand) geom.Rect {
	w := 0.01 + rng.Float64()*5
	h := 0.01 + rng.Float64()*5
	x := rng.Float64() * 95
	y := rng.Float64() * 95
	return geom.R(x, y, x+w, y+h)
}
