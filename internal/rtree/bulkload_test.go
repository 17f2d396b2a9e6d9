package rtree

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"mbrtopo/internal/geom"
)

// bulkLoad builds a tree the way every bulk load does: one InsertBatch
// into an empty tree, which STR-packs it.
func bulkLoad(recs []Record) (*Tree, error) {
	t, err := NewArena(testPageSize, Options{}, "packed")
	if err != nil {
		return nil, err
	}
	return t, t.InsertBatch(recs)
}

func TestBulkLoadSmall(t *testing.T) {
	for _, n := range []int{0, 1, 5, 12, 13, 50, 500} {
		rng := rand.New(rand.NewSource(int64(n)))
		recs := make([]Record, n)
		data := map[uint64]geom.Rect{}
		for i := range recs {
			r := randRect(rng, 100, 5)
			recs[i] = Record{Rect: r, OID: uint64(i + 1)}
			data[uint64(i+1)] = r
		}
		tr, err := bulkLoad(recs)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if tr.Len() != n {
			t.Fatalf("n=%d: Len=%d", n, tr.Len())
		}
		if n > 0 {
			if err := tr.CheckInvariants(); err != nil {
				t.Fatalf("n=%d: %v", n, err)
			}
			for q := 0; q < 30; q++ {
				w := randRect(rng, 100, 20)
				got := windowQuery(t, tr, w)
				want := bruteWindow(data, w)
				if !eqOIDs(got, want) {
					t.Fatalf("n=%d window %v: got %d want %d", n, w, len(got), len(want))
				}
			}
		}
	}
}

// TestBulkLoadThenUpdate: a packed tree must accept ordinary inserts
// and deletes while keeping its invariants.
func TestBulkLoadThenUpdate(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	recs := make([]Record, 400)
	data := map[uint64]geom.Rect{}
	for i := range recs {
		r := randRect(rng, 100, 5)
		recs[i] = Record{Rect: r, OID: uint64(i + 1)}
		data[uint64(i+1)] = r
	}
	tr, err := bulkLoad(recs)
	if err != nil {
		t.Fatal(err)
	}
	for i := 401; i <= 600; i++ {
		r := randRect(rng, 100, 5)
		if err := tr.Insert(r, uint64(i)); err != nil {
			t.Fatal(err)
		}
		data[uint64(i)] = r
	}
	for oid := uint64(1); oid <= 200; oid++ {
		if err := tr.Delete(data[oid], oid); err != nil {
			t.Fatal(err)
		}
		delete(data, oid)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for q := 0; q < 50; q++ {
		w := randRect(rng, 100, 25)
		if got, want := windowQuery(t, tr, w), bruteWindow(data, w); !eqOIDs(got, want) {
			t.Fatalf("window: got %d want %d", len(got), len(want))
		}
	}
}

// TestBulkLoadPacking: packing should use markedly fewer pages than
// one-by-one insertion and never more search I/O.
func TestBulkLoadPacking(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	recs := make([]Record, 2000)
	for i := range recs {
		recs[i] = Record{Rect: randRect(rng, 100, 2), OID: uint64(i + 1)}
	}
	packed, err := bulkLoad(recs)
	if err != nil {
		t.Fatal(err)
	}
	grown, err := newTestRTree()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := grown.Insert(r.Rect, r.OID); err != nil {
			t.Fatal(err)
		}
	}
	if pp, gp := livePages(packed), livePages(grown); pp >= gp {
		t.Fatalf("packed uses %d pages, grown uses %d", pp, gp)
	}
	// Window query I/O comparison.
	var packedReads, grownReads uint64
	for q := 0; q < 50; q++ {
		w := randRect(rng, 100, 10)
		pred := func(r geom.Rect) bool { return r.Intersects(w) }
		packed.ResetIOStats()
		if err := packed.Search(pred, pred, func(geom.Rect, uint64) bool { return true }); err != nil {
			t.Fatal(err)
		}
		packedReads += packed.IOStats().Reads
		grown.ResetIOStats()
		if err := grown.Search(pred, pred, func(geom.Rect, uint64) bool { return true }); err != nil {
			t.Fatal(err)
		}
		grownReads += grown.IOStats().Reads
	}
	if packedReads > grownReads {
		t.Fatalf("packed reads %d > grown reads %d", packedReads, grownReads)
	}
}

func TestBulkLoadRejectsDegenerate(t *testing.T) {
	_, err := bulkLoad([]Record{{Rect: geom.R(0, 0, 0, 1), OID: 1}})
	if err == nil {
		t.Fatal("degenerate rect accepted")
	}
}

// nodeCopy is what a node version holds: its level and entries, and
// the node itself.
type nodeCopy struct {
	n       *node
	level   int
	entries []Entry
}

// versionCopy is a deep copy of every node one tree version reaches,
// in depth-first order.
type versionCopy []nodeCopy

// copyVersion walks the version under root and copies each node's
// level and entries.
func copyVersion(root *node) versionCopy {
	var out versionCopy
	var walk func(n *node)
	walk = func(n *node) {
		out = append(out, nodeCopy{n, n.level, slices.Clone(n.entries)})
		if !n.isLeaf() {
			for i := range n.entries {
				walk(n.entries[i].Child)
			}
		}
	}
	walk(root)
	return out
}

func (v versionCopy) diff(w versionCopy) error {
	if len(v) != len(w) {
		return fmt.Errorf("%d nodes, was %d", len(w), len(v))
	}
	for i := range v {
		if v[i].n != w[i].n || v[i].level != w[i].level || !slices.Equal(v[i].entries, w[i].entries) {
			return fmt.Errorf("node %d (level %d) changed", i, v[i].level)
		}
	}
	return nil
}

// TestPackedNodesStayImmutable: a packed arena node keeps the capped
// subslice of the level buffer it was built from instead of a copy, so
// a write to one leaf must never reach a neighbouring leaf's entries
// or a version a reader still holds. It holds the freshly packed version,
// copies every node it reaches, then deletes each leaf's first and last
// entry and inserts beside leaves across the whole buffer while readers
// search the live tree and walk the held version (under -race, any
// write to a shared entry is reported). The held version must read
// exactly as copied; the live tree must keep its invariants and answer
// what a brute-force scan does.
func TestPackedNodesStayImmutable(t *testing.T) {
	const n, ops = 10000, 2000
	rng := rand.New(rand.NewSource(17))
	recs := make([]Record, n)
	data := map[uint64]geom.Rect{}
	for i := range recs {
		recs[i] = Record{Rect: randRect(rng, 1000, 8), OID: uint64(i + 1)}
		data[recs[i].OID] = recs[i].Rect
	}
	tree, err := newTestRStar()
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.InsertBatch(recs); err != nil {
		t.Fatal(err)
	}
	held := tree.cur.Load().root
	want := copyVersion(held)
	var leaves []nodeCopy
	for _, c := range want {
		if c.level == 0 {
			leaves = append(leaves, c)
		}
		if len(c.n.entries) != cap(c.n.entries) {
			t.Fatalf("a packed level-%d node holds %d entries with capacity %d: appending to it would write past its chunk",
				c.level, len(c.n.entries), cap(c.n.entries))
		}
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan error, 2) // one send per reader at most
	reader := func(read func() error) {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := read(); err != nil {
				errs <- err
				return
			}
		}
	}
	all := func(geom.Rect) bool { return true }
	wg.Add(2)
	go reader(func() error {
		return tree.Search(all, all, func(geom.Rect, uint64) bool { return true })
	})
	go reader(func() error { return want.diff(copyVersion(held)) })

	// Both end slots of every leaf go, and the inserts land beside leaves
	// spread evenly over the buffer, up to ops mutations in all.
	inserts := ops - 2*len(leaves)
	nextOID := uint64(n + 1)
	for k, leaf := range leaves {
		first, last := leaf.entries[0], leaf.entries[len(leaf.entries)-1]
		for _, e := range []Entry{first, last} {
			if err := tree.Delete(e.Rect, e.OID); err != nil {
				t.Fatalf("delete oid %d: %v", e.OID, err)
			}
			delete(data, e.OID)
		}
		if (k+1)*inserts/len(leaves) > k*inserts/len(leaves) {
			c := leaf.entries[len(leaf.entries)/2].Rect.Center()
			r := geom.R(c.X-0.5, c.Y-0.5, c.X+0.5, c.Y+0.5)
			if err := tree.Insert(r, nextOID); err != nil {
				t.Fatal(err)
			}
			data[nextOID] = r
			nextOID++
		}
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}

	if err := want.diff(copyVersion(held)); err != nil {
		t.Fatalf("the held packed version: %v", err)
	}
	if tree.Len() != len(data) {
		t.Fatalf("Len = %d, want %d", tree.Len(), len(data))
	}
	checkInv(t, "after mutations", tree)
	for q := 0; q < 50; q++ {
		w := randRect(rng, 1000, 60)
		if got, want := windowQuery(t, tree, w), bruteWindow(data, w); !eqOIDs(got, want) {
			t.Fatalf("window %v: got %d objects, want %d", w, len(got), len(want))
		}
	}
}
