package rtree

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"mbrtopo/internal/geom"
)

// oracleStrTile is the comparison-sort tiler the bucket pass replaced,
// kept verbatim as the reference FuzzPack holds strTile to.
func oracleStrTile(entries []Entry, capacity, minFill int) [][]Entry {
	n := len(entries)
	if n <= capacity {
		return [][]Entry{entries[:n:n]}
	}
	// The comparators answer -1 or 0, never 1: pdqsort only asks
	// whether cmp < 0, so this is the order (ties and NaN centres
	// included) a less function of the same test gives.
	slices.SortFunc(entries, func(a, b Entry) int {
		if a.Rect.Center().X < b.Rect.Center().X {
			return -1
		}
		return 0
	})
	numNodes := (n + capacity - 1) / capacity
	numSlabs := intSqrtCeil(numNodes)
	slabSize := numSlabs * capacity

	chunks := make([][]Entry, 0, numNodes)
	for start := 0; start < n; start += slabSize {
		end := min(start+slabSize, n)
		slices.SortFunc(entries[start:end], func(a, b Entry) int {
			if a.Rect.Center().Y < b.Rect.Center().Y {
				return -1
			}
			return 0
		})
		for s := start; s < end; s += capacity {
			e := min(s+capacity, end)
			chunks = append(chunks, entries[s:e:e])
		}
	}
	// Rebalance an underfull tail chunk by borrowing from the previous
	// chunk, so the min-fill invariant holds everywhere. The two are
	// adjacent in entries: the borrow moves the boundary between them.
	if last := len(chunks) - 1; last > 0 && len(chunks[last]) < minFill {
		keep := len(chunks[last-1]) - (minFill - len(chunks[last]))
		chunks[last-1] = chunks[last-1][:keep:keep]
		chunks[last] = entries[n-minFill : n : n]
	}
	return chunks
}

// fuzzPackCap is the node capacity FuzzPack tiles at: small, so that a
// few thousand records make five levels and many slabs.
const fuzzPackCap = 6

// tileLevels tiles recs level by level the way packInto does and
// returns every level's chunks as OID lists. tile gets a fresh leaf
// buffer with recs, an upper level with nil; an upper entry is its
// chunk's union, under the chunk's index as its OID.
func tileLevels(recs []Record, tile func([]Entry, []Record) [][]Entry) [][][]uint64 {
	var levels [][][]uint64
	entries, src := make([]Entry, len(recs)), recs
	for {
		chunks := tile(entries, src)
		level := make([][]uint64, len(chunks))
		next := make([]Entry, len(chunks))
		for i, chunk := range chunks {
			for _, e := range chunk {
				level[i] = append(level[i], e.OID)
			}
			next[i] = Entry{Rect: (&node{entries: chunk}).union(), OID: uint64(i)}
		}
		levels = append(levels, level)
		if len(next) == 1 {
			return levels
		}
		entries, src = next, nil
	}
}

// The FuzzPack distributions.
const (
	packUniform  = iota
	packGrid     // centres on a 7 × 5 grid: ties on x, y or both
	packClusters // three tight clusters: a few long bucket runs
	packOutlier  // one record far away (nearly all in one bucket), one tie
	packSignedZ  // one centre at -0 and one at +0 on each axis
	packInfinite // ±Inf bounds: ±Inf and NaN centres
	packDists
)

// packRecs draws n records of one distribution, OIDs 1..n.
func packRecs(dist, n int, seed int64) []Record {
	rng := rand.New(rand.NewSource(seed))
	interval := func(c, h float64) (float64, float64) { return c - h, c + h }
	recs := make([]Record, n)
	for i := range recs {
		var r geom.Rect
		switch dist {
		case packGrid:
			cx, cy := float64(rng.Intn(7)), float64(rng.Intn(5))
			hw, hh := float64(1+rng.Intn(8))/8, float64(1+rng.Intn(8))/8
			r = geom.R(cx-hw, cy-hh, cx+hw, cy+hh)
		case packClusters:
			c := float64(rng.Intn(3)) * 1000
			x, y := c+rng.Float64()*1e-6, c+rng.Float64()*1e-6
			r = geom.R(x, y, x+1e-9, y+1e-9)
		case packOutlier:
			x, y := rng.Float64(), rng.Float64()
			switch {
			case i == n/2:
				x, y = 1e12, 1e12
			case i == n/3 && i > 0:
				x, y = recs[0].Rect.Min.X, recs[0].Rect.Min.Y
			}
			r = geom.R(x, y, x+0.01, y+0.01)
		case packSignedZ:
			x, y := rng.Float64()*2000-1000, rng.Float64()*2000-1000
			r = geom.R(x, y, x+1, y+1)
			switch i {
			case 0: // centre +0: -h + h
				r = geom.R(-1, -1, 1, 1)
			case 1: // centre -0: (-2⁻¹⁰⁷³ + 2⁻¹⁰⁷⁴)/2 rounds to -0
				r = geom.R(-0x1p-1073, -0x1p-1073, 0x1p-1074, 0x1p-1074)
			}
		case packInfinite:
			r.Min.X, r.Max.X = interval(rng.Float64()*1000, 1)
			r.Min.Y, r.Max.Y = interval(rng.Float64()*1000, 1)
			switch rng.Intn(8) {
			case 0:
				r.Min.X, r.Max.X = math.Inf(-1), math.Inf(1)
			case 1:
				r.Max.X = math.Inf(1)
			case 2:
				r.Min.Y = math.Inf(-1)
			case 3:
				r.Min.Y, r.Max.Y = math.Inf(-1), math.Inf(1)
			}
		default:
			x, y := rng.Float64()*1000, rng.Float64()*1000
			r = geom.R(x, y, x+rng.Float64()*10+0.01, y+rng.Float64()*10+0.01)
		}
		recs[i] = Record{Rect: r, OID: uint64(i + 1)}
	}
	return recs
}

// FuzzPack holds strTile, level by level, to oracleStrTile: the same
// chunk boundaries and the same OID order in every chunk. The input is
// a seed, a size and a distribution; the seeds cover each distribution
// at one record, one node, one node plus one, both sides of the
// min-fill borrow and the edges of a slab.
func FuzzPack(f *testing.F) {
	// packSignedZ must make the centres it names: +0 and -0, which
	// compare equal.
	z := packRecs(packSignedZ, 2, 1)
	if pos, neg := z[0].Rect.Center(), z[1].Rect.Center(); pos != neg ||
		math.Signbit(pos.X) || math.Signbit(pos.Y) || !math.Signbit(neg.X) || !math.Signbit(neg.Y) {
		f.Fatalf("centres %v and %v, want +0 and -0", pos, neg)
	}
	m := fuzzPackCap
	minFill := minEntries(m)
	// 2m+minFill-1 leaves a tail chunk one short of minFill (it
	// borrows), 2m+minFill does not; s²·m fills s slabs exactly and one
	// more record opens another.
	sizes := []int{1, m, m + 1, 2*m + minFill - 1, 2*m + minFill, 9 * m, 9*m + 1, 36 * m, 36*m + 1, 1000, 5000}
	for dist := range packDists {
		for _, n := range sizes {
			f.Add(int64(n*packDists+dist), uint16(n), uint8(dist))
		}
	}
	f.Fuzz(func(t *testing.T, seed int64, size uint16, dist uint8) {
		n := max(int(size)%6001, 1)
		recs := packRecs(int(dist)%packDists, n, seed)
		var sc packScratch
		got := tileLevels(recs, func(entries []Entry, recs []Record) [][]Entry {
			return strTile(entries, recs, m, minFill, &sc)
		})
		want := tileLevels(recs, func(entries []Entry, recs []Record) [][]Entry {
			fill(entries, recs)
			return oracleStrTile(entries, m, minFill)
		})
		if g, w := fmt.Sprint(got), fmt.Sprint(want); g != w {
			t.Fatalf("dist %d, %d records: the pack's levels differ from the oracle's\n got  %.600s\n want %.600s", dist, n, g, w)
		}
	})
}
