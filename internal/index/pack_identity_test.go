package index_test

import (
	"bufio"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"

	"mbrtopo/internal/geom"
	"mbrtopo/internal/index"
	"mbrtopo/internal/workload"
)

// gridItems draws n rectangles whose centres all lie on a 7 × 5 grid
// of integer points, so most centres tie on x, on y or on both. Half
// sides are multiples of 1/8, which keeps every centre exact.
func gridItems(n int, seed int64) []index.Item {
	rng := rand.New(rand.NewSource(seed))
	items := make([]index.Item, n)
	for i := range items {
		cx, cy := float64(rng.Intn(7)), float64(rng.Intn(5))
		hw, hh := float64(1+rng.Intn(8))/8, float64(1+rng.Intn(8))/8
		items[i] = index.Item{Rect: geom.R(cx-hw, cy-hh, cx+hw, cy+hh), OID: uint64(i + 1)}
	}
	return items
}

// TestPackIdentity pins the Sort-Tile-Recursive pack byte for byte. For
// each tree kind, data set and size — around one leaf, one two-level
// tree (50 × 49 = 2450 entries) and the paper's 100 000 — it bulk-loads
// the items into an empty tree and compares the sha256 of the flat image
// at generation 7 and the page counters the load cost against
// testdata/pack_identity.golden. The golden's lines are what the first
// packer, which copied and sort.Slice'd every level, wrote, once into a
// node arena (…/arena) and once onto a page file (…/paged); the tree
// must match both. Any change to a tile, a chunk boundary or a tie's
// order shows up here.
func TestPackIdentity(t *testing.T) {
	want := map[string]string{}
	f, err := os.Open("testdata/pack_identity.golden")
	if err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, rest, ok := strings.Cut(sc.Text(), " "); ok {
			want[name] = rest
		}
	}
	f.Close()
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	data := []struct {
		name  string
		items func(n int) []index.Item
	}{
		{"uniform", func(n int) []index.Item { return workload.NewDataset(workload.Medium, n, 0, 7).Items }},
		{"grid", func(n int) []index.Item { return gridItems(n, 7) }},
	}
	var got []string
	for _, d := range data {
		for _, n := range []int{1, 49, 50, 51, 2451, 2500, 2501, 100000} {
			items := d.items(n)
			for _, kind := range []index.Kind{index.KindRTree, index.KindRStar} {
				name := fmt.Sprintf("%s/%d/%s", d.name, n, strings.ReplaceAll(kind.String(), "-tree", ""))
				idx, err := index.New(kind)
				if err != nil {
					t.Fatal(err)
				}
				if err := index.LoadBulk(idx, items); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				ios := idx.IOStats()
				h := sha256.New()
				if err := index.WriteFlat(idx, h, 7); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				line := fmt.Sprintf("%x reads=%d writes=%d allocs=%d frees=%d",
					h.Sum(nil), ios.Reads, ios.Writes, ios.Allocs, ios.Frees)
				for _, store := range []string{"arena", "paged"} {
					got = append(got, name+"/"+store+" "+line)
					if want[name+"/"+store] != line {
						t.Errorf("%s/%s:\n got  %s\n want %s", name, store, line, want[name+"/"+store])
					}
				}
			}
		}
	}
	if t.Failed() {
		t.Logf("this packer's golden:\n%s", strings.Join(got, "\n"))
	}
}

// BenchmarkPack times LoadBulk of 100 000 rectangles into an empty
// R*-tree at the paper's page size: medium uniform rectangles, whose
// centres are distinct, so every sort of the pack takes the bucket
// pass; and the grid of tied centres, whose leaf-level sorts take the
// tie rule (pdqsort). B/op is what the pack allocates.
//
//	go test -run '^$' -bench Pack -benchmem ./internal/index
func BenchmarkPack(b *testing.B) {
	const n = 100000
	for _, d := range []struct {
		name  string
		items []index.Item
	}{
		{"uniform", workload.NewDataset(workload.Medium, n, 0, 3).Items},
		{"grid", gridItems(n, 7)},
	} {
		b.Run(d.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				idx, err := index.New(index.KindRStar)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if err := index.LoadBulk(idx, d.items); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
