package rtree

import (
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
	level := 0
	for {
		nodes, err := t.packLevel(entries, level)
		if err != nil {
			return err
		}
		if len(nodes) == 1 {
			t.root = nodes[0].id
			t.depth = level + 1
			t.size = len(recs)
			return nil
		}
		next := make([]Entry, len(nodes))
		for i, n := range nodes {
			next[i] = Entry{Rect: n.mbr(), Child: n.id}
		}
		entries = next
		level++
	}
}

// packLevel tiles entries into written nodes of the given level.
func (t *Tree) packLevel(entries []Entry, level int) ([]*node, error) {
	m := t.st.cap
	chunks := strTile(entries, m, minEntries(m))
	nodes := make([]*node, 0, len(chunks))
	for _, chunk := range chunks {
		n, err := t.allocMutNode(level)
		if err != nil {
			return nil, err
		}
		n.entries = chunk
		if err := t.st.writeNode(n); err != nil {
			return nil, err
		}
		nodes = append(nodes, n)
	}
	return nodes, nil
}

// strTile groups entries into chunks of at most capacity entries using
// sort-tile-recursive slabs, guaranteeing every chunk has at least
// minFill entries (the tail chunk borrows from its predecessor).
func strTile(entries []Entry, capacity, minFill int) [][]Entry {
	n := len(entries)
	if n <= capacity {
		return [][]Entry{entries}
	}
	sorted := make([]Entry, n)
	copy(sorted, entries)
	sort.Slice(sorted, func(i, j int) bool {
		return sorted[i].Rect.Center().X < sorted[j].Rect.Center().X
	})
	numNodes := (n + capacity - 1) / capacity
	numSlabs := intSqrtCeil(numNodes)
	slabSize := numSlabs * capacity

	var chunks [][]Entry
	for start := 0; start < n; start += slabSize {
		end := min(start+slabSize, n)
		slab := sorted[start:end]
		sort.Slice(slab, func(i, j int) bool {
			return slab[i].Rect.Center().Y < slab[j].Rect.Center().Y
		})
		for s := 0; s < len(slab); s += capacity {
			e := min(s+capacity, len(slab))
			chunk := make([]Entry, e-s)
			copy(chunk, slab[s:e])
			chunks = append(chunks, chunk)
		}
	}
	// Rebalance an underfull tail chunk by borrowing from the previous
	// chunk, so the min-fill invariant holds everywhere.
	if last := len(chunks) - 1; last > 0 && len(chunks[last]) < minFill {
		need := minFill - len(chunks[last])
		prev := chunks[last-1]
		moved := prev[len(prev)-need:]
		chunks[last-1] = prev[:len(prev)-need]
		chunks[last] = append(append([]Entry{}, moved...), chunks[last]...)
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
