package rtree

import (
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
// The leaf level is one []Entry, allocated here and sorted in place;
// each leaf is a capped subslice of it, which an arena node keeps as
// its entries (installOwned), so a record is copied once, from recs
// into that buffer. Each upper level is one buffer of its own, packed
// the same way. recs is neither modified nor retained.
//
// It runs inside a mutation (InsertBatch on an empty tree), so the
// packed nodes are tracked as fresh and the superseded root page is
// retired rather than freed under any concurrent reader.
func (t *Tree) packInto(recs []Record) error {
	old, err := t.st.readNode(t.root)
	if err != nil {
		return err
	}
	if err := t.freeMutNode(old); err != nil {
		return err
	}
	entries := make([]Entry, len(recs))
	for i, r := range recs {
		entries[i] = Entry{Rect: r.Rect, OID: r.OID}
	}
	for level := 0; ; level++ {
		next, err := t.packLevel(entries, level)
		if err != nil {
			return err
		}
		if len(next) == 1 {
			t.root = next[0].Child
			t.depth = level + 1
			t.size = len(recs)
			return nil
		}
		entries = next
	}
}

// packLevel tiles entries, in place, into nodes of the given level and
// returns the entries of the level above: one per node, its MBR and id.
func (t *Tree) packLevel(entries []Entry, level int) ([]Entry, error) {
	m := t.st.cap
	chunks := strTile(entries, m, minEntries(m))
	next := make([]Entry, len(chunks))
	for i, chunk := range chunks {
		n, err := t.allocMutNode(level)
		if err != nil {
			return nil, err
		}
		n.entries = chunk
		if t.st.ar != nil {
			t.st.ar.installOwned(n, m)
		} else if err := t.st.writeNode(n); err != nil {
			return nil, err
		}
		next[i] = Entry{Rect: n.mbr(), Child: n.id}
	}
	return next, nil
}

// strTile sorts entries in place into sort-tile-recursive order and
// cuts them into chunks of at most capacity entries, guaranteeing every
// chunk has at least minFill entries (the tail chunk borrows from its
// predecessor). Chunks are consecutive subslices of entries, capped at
// their own length, so appending to one never writes into the next.
func strTile(entries []Entry, capacity, minFill int) [][]Entry {
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
