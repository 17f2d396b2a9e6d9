package rtree

import (
	"math"
	"slices"
	"sort"

	"mbrtopo/internal/geom"
)

// Record is one (rectangle, object id) pair for bulk loading.
type Record struct {
	Rect geom.Rect
	OID  uint64
}

// packInto packs recs into an empty tree by Sort-Tile-Recursive
// (Leutenegger, López, Edgington 1997), replacing the placeholder root:
// records are sorted by x-center, cut into vertical slabs, sorted by
// y-center within each slab and packed into full leaves; upper levels
// pack the level below the same way. The result is a valid R-tree
// (searches, inserts and deletes work as usual) with near-full nodes
// and little overlap — the classic way a production system loads a
// static data file, complementing the paper's one-by-one insertion
// builds. The split/reinsert options only affect later updates; packing
// itself is parameter-free apart from the node capacity.
//
// The leaf level is one []Entry, allocated here and filled from recs in
// x-centre order (sortByCentre); each leaf is a capped subslice of it,
// which an arena node keeps as its entries (installOwned), so a record
// is copied once, from recs into that buffer. Each upper level is one
// buffer of its own, packed the same way. recs is neither modified nor
// retained. It returns how many of the pack's sorts took the tie rule.
//
// It runs inside a mutation (InsertBatch on an empty tree), so the
// packed nodes are tracked as fresh and the superseded root stays what
// it was for any concurrent reader.
func (t *Tree) packInto(recs []Record) (ties int) {
	t.freeMutNode(t.st.get(t.root))
	var sc packScratch
	entries, src := make([]Entry, len(recs)), recs
	for level := 0; ; level++ {
		next := t.packLevel(entries, src, level, &sc)
		if len(next) == 1 {
			t.root = next[0].Child
			t.depth = level + 1
			t.size = len(recs)
			return sc.ties
		}
		entries, src = next, nil
	}
}

// packLevel tiles entries (filled from recs at the leaf level, see
// strTile) into nodes of the given level and returns the entries of the
// level above: one per node, its MBR and the node.
func (t *Tree) packLevel(entries []Entry, recs []Record, level int, sc *packScratch) []Entry {
	m := t.st.cap
	chunks := strTile(entries, recs, m, minEntries(m), sc)
	next := make([]Entry, len(chunks))
	for i, chunk := range chunks {
		n := t.allocMutNode(level)
		n.entries = chunk
		t.st.installOwned(n)
		next[i] = Entry{Rect: n.mbr(), Child: n}
	}
	return next
}

// strTile puts entries into sort-tile-recursive order and cuts them
// into chunks of at most capacity entries, guaranteeing every chunk has
// at least minFill entries (the tail chunk borrows from its
// predecessor). With recs (the leaf level) the order is that of recs'
// records, written into entries; without, entries is reordered in
// place. Chunks are consecutive subslices of entries, capped at their
// own length, so appending to one never writes into the next.
func strTile(entries []Entry, recs []Record, capacity, minFill int, sc *packScratch) [][]Entry {
	n := len(entries)
	if n <= capacity {
		fill(entries, recs)
		return [][]Entry{entries[:n:n]}
	}
	sc.sortByCentre(entries, recs, false)
	numNodes := (n + capacity - 1) / capacity
	numSlabs := intSqrtCeil(numNodes)
	slabSize := numSlabs * capacity

	chunks := make([][]Entry, 0, numNodes)
	for start := 0; start < n; start += slabSize {
		end := min(start+slabSize, n)
		sc.sortByCentre(entries[start:end], nil, true)
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

// packScratch is what one pack reuses across its sorts: the bucket
// counts and one slab-sized buffer.
type packScratch struct {
	counts []int32
	buf    []Entry
	ties   int // sorts that took the tie rule
}

// sortByCentre orders entries by the centre of each rectangle on one
// axis (y: the y-centre, else the x-centre), exactly as pdqsortByCentre
// does. With recs, entries is written from recs in that order; without,
// entries is its own input.
//
// bucketByCentre orders in expected linear time, giving the order of
// any exact sort. When no two centres tie, that order is unique, so it
// is pdqsort's too. When it finds a tie — a NaN centre, an infinite
// spread and -0 beside +0 count as one — only pdqsort's own permutation
// will do, and the tie rule runs pdqsortByCentre on the untouched
// input: the leaf buffer refilled from recs, or a slab or upper level,
// which the bucket pass only reads (it writes the slab buffer).
func (sc *packScratch) sortByCentre(entries []Entry, recs []Record, y bool) {
	if len(entries) < 2 {
		fill(entries, recs)
		return
	}
	if recs != nil {
		if bucketByCentre(entries, nil, recs, y, &sc.counts) {
			return
		}
		fill(entries, recs)
	} else {
		if cap(sc.buf) < len(entries) {
			sc.buf = make([]Entry, len(entries))
		}
		if buf := sc.buf[:len(entries)]; bucketByCentre(buf, entries, nil, y, &sc.counts) {
			copy(entries, buf)
			return
		}
	}
	sc.ties++
	pdqsortByCentre(entries, y)
}

// pdqsortByCentre sorts entries by centre with slices.SortFunc, whose
// comparators answer -1 or 0, never 1: pdqsort only asks whether
// cmp < 0, so this is the order (ties and NaN centres included) a less
// function of the same test gives.
func pdqsortByCentre(entries []Entry, y bool) {
	if y {
		slices.SortFunc(entries, func(a, b Entry) int {
			if a.Rect.Center().Y < b.Rect.Center().Y {
				return -1
			}
			return 0
		})
	} else {
		slices.SortFunc(entries, func(a, b Entry) int {
			if a.Rect.Center().X < b.Rect.Center().X {
				return -1
			}
			return 0
		})
	}
}

// centre is the sort key of r on one axis.
func centre(r geom.Rect, y bool) float64 {
	if y {
		return r.Center().Y
	}
	return r.Center().X
}

// fill writes recs into entries in order; nil recs writes nothing.
func fill(entries []Entry, recs []Record) {
	for i, r := range recs {
		entries[i] = Entry{Rect: r.Rect, OID: r.OID}
	}
}

// maxInsertionRun is the longest bucket run insertion sort orders;
// pdqsort orders a longer one.
const maxInsertionRun = 32

// bucketByCentre writes the entries of src, or of recs when src is nil,
// to dst (of the same length, at least 2) in ascending centre order on
// one axis: a min/max pass, a counting pass into about len/2 buckets
// under the monotone map (k-lo)·scale, a scatter pass, and an exact
// sort of each bucket's run. It reports false, leaving dst unspecified,
// when that order is not unique or not defined: two centres compare
// equal (-0 and +0 included), a centre is NaN, or the spread hi-lo is
// zero, infinite or too small to scale. counts is the bucket scratch,
// grown as needed.
func bucketByCentre(dst, src []Entry, recs []Record, y bool, counts *[]int32) bool {
	n := len(dst)
	key := func(i int) float64 {
		if src == nil {
			return centre(recs[i].Rect, y)
		}
		return centre(src[i].Rect, y)
	}
	if n > math.MaxInt32 {
		return false
	}
	// A key equal to the least or greatest so far is a tie found early,
	// which spares a data set of few distinct centres the other passes.
	// A NaN key makes lo and hi NaN (min and max propagate it), and so
	// the scale.
	lo, hi := math.Inf(1), math.Inf(-1)
	for i := range n {
		k := key(i)
		if k == lo || k == hi {
			return false
		}
		lo, hi = min(lo, k), max(hi, k)
	}
	nb := n / 2
	scale := float64(nb) / (hi - lo)
	if !(scale > 0 && scale <= math.MaxFloat64) {
		return false
	}
	// c[b] counts bucket b-1, then (prefix sums) holds where bucket b
	// starts, then (scatter) where it ends.
	c := slices.Grow((*counts)[:0], nb+1)[:nb+1]
	*counts = c
	clear(c)
	for i := range n {
		c[bucketOf(key(i), lo, scale, nb)+1]++
	}
	for b := 1; b <= nb; b++ {
		c[b] += c[b-1]
	}
	// Field by field: a whole Entry built in a temporary makes each
	// store wait for the scattered ones before it.
	for i := range n {
		b := bucketOf(key(i), lo, scale, nb)
		d := &dst[c[b]]
		c[b]++
		if src == nil {
			d.Rect, d.Child, d.OID = recs[i].Rect, nil, recs[i].OID
		} else {
			*d = src[i]
		}
	}
	start := 0
	for _, end := range c[:nb] {
		if int(end)-start > 1 && !sortRun(dst[start:end], y) {
			return false
		}
		start = int(end)
	}
	return true
}

// bucketOf maps a key in [lo, lo+nb/scale] to one of nb buckets,
// keeping their order: a larger key never lands in a lower bucket.
func bucketOf(k, lo, scale float64, nb int) int {
	return min(int((k-lo)*scale), nb-1)
}

// sortRun orders one bucket's run by centre and reports false at the
// first tie.
func sortRun(run []Entry, y bool) bool {
	if len(run) > maxInsertionRun {
		pdqsortByCentre(run, y)
		for i := 1; i < len(run); i++ {
			if !(centre(run[i-1].Rect, y) < centre(run[i].Rect, y)) {
				return false
			}
		}
		return true
	}
	for i := 1; i < len(run); i++ {
		e := run[i]
		k := centre(e.Rect, y)
		j := i
		for ; j > 0 && k < centre(run[j-1].Rect, y); j-- {
			run[j] = run[j-1]
		}
		if j > 0 && !(centre(run[j-1].Rect, y) < k) {
			return false
		}
		run[j] = e
	}
	return true
}

// STRPartition splits records into exactly n spatially coherent groups
// using the same sort-tile-recursive pass the bulk loader packs nodes
// with: sort by x-center, cut into vertical slabs, sort each slab by
// y-center and cut into tiles. Every record lands in exactly one group;
// groups are contiguous tiles of roughly equal size. When there are
// fewer records than groups the trailing groups are empty (callers map
// group i to shard i, so the count must not depend on the data).
func STRPartition(records []Record, n int) [][]Record {
	if n < 1 {
		n = 1
	}
	out := make([][]Record, n)
	if len(records) == 0 {
		return out
	}
	capacity := (len(records) + n - 1) / n
	sorted := make([]Record, len(records))
	copy(sorted, records)
	sort.Slice(sorted, func(i, j int) bool {
		return sorted[i].Rect.Center().X < sorted[j].Rect.Center().X
	})
	numSlabs := intSqrtCeil(n)
	slabSize := numSlabs * capacity
	next := 0
	for start := 0; start < len(sorted); start += slabSize {
		end := min(start+slabSize, len(sorted))
		slab := sorted[start:end]
		sort.Slice(slab, func(i, j int) bool {
			return slab[i].Rect.Center().Y < slab[j].Rect.Center().Y
		})
		for s := 0; s < len(slab); s += capacity {
			e := min(s+capacity, len(slab))
			tile := make([]Record, e-s)
			copy(tile, slab[s:e])
			out[next] = tile
			next++
		}
	}
	return out
}

func intSqrtCeil(n int) int {
	s := 1
	for s*s < n {
		s++
	}
	return s
}
