package rtree

import (
	"bytes"
	"context"
	"math/rand"
	"testing"

	"mbrtopo/internal/geom"
	"mbrtopo/internal/pagefile"
)

// FuzzFlatDecode feeds arbitrary bytes to the flat-snapshot reader.
// The contract under fuzzing: OpenFlatBytes either returns an error or
// an image that is refused by adoption (another page size) or adopted
// into a tree on which every read operation (window query, kNN, join
// against itself) terminates without panicking — corrupted input must
// never produce a crash or an out-of-bounds access. The seed corpus is
// real snapshots of all three tree kinds plus an empty one.
func FuzzFlatDecode(f *testing.F) {
	addTree := func(n int) {
		rng := rand.New(rand.NewSource(int64(n)))
		file := pagefile.NewMemFile(512)
		trees := []struct {
			enc func(*bytes.Buffer) error
		}{}
		rt, err := NewRTree(file)
		if err == nil {
			for i := 0; i < n; i++ {
				_ = rt.Insert(randFuzzRect(rng), uint64(i))
			}
			trees = append(trees, struct{ enc func(*bytes.Buffer) error }{func(b *bytes.Buffer) error { return rt.WriteFlat(b, 1) }})
		}
		rp, err := NewRPlus(pagefile.NewMemFile(512))
		if err == nil {
			for i := 0; i < n; i++ {
				_ = rp.Insert(randFuzzRect(rng), uint64(i))
			}
			trees = append(trees, struct{ enc func(*bytes.Buffer) error }{func(b *bytes.Buffer) error { return rp.WriteFlat(b, 2) }})
		}
		rs, err := NewRStar(pagefile.NewMemFile(512))
		if err == nil {
			for i := 0; i < n; i++ {
				_ = rs.Insert(randFuzzRect(rng), uint64(i))
			}
			trees = append(trees, struct{ enc func(*bytes.Buffer) error }{func(b *bytes.Buffer) error { return rs.WriteFlat(b, 3) }})
		}
		for _, tr := range trees {
			var buf bytes.Buffer
			if err := tr.enc(&buf); err == nil {
				f.Add(buf.Bytes())
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
