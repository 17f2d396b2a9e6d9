package rtree

import (
	"math/rand"
	"testing"

	"mbrtopo/internal/geom"
	"mbrtopo/internal/pagefile"
)

// bulkLoad builds a tree the way every bulk load does: one InsertBatch
// into an empty tree, which STR-packs it.
func bulkLoad(file pagefile.File, recs []Record) (*Tree, error) {
	t, err := New(file, Options{}, "packed")
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
		tr, err := bulkLoad(pagefile.NewMemFile(testPageSize), recs)
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
	tr, err := bulkLoad(pagefile.NewMemFile(testPageSize), recs)
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
	packedFile := pagefile.NewMemFile(testPageSize)
	packed, err := bulkLoad(packedFile, recs)
	if err != nil {
		t.Fatal(err)
	}
	grownFile := pagefile.NewMemFile(testPageSize)
	grown, err := NewRTree(grownFile)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := grown.Insert(r.Rect, r.OID); err != nil {
			t.Fatal(err)
		}
	}
	if pp, gp := packedFile.NumPages(), grownFile.NumPages(); pp >= gp {
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
	_, err := bulkLoad(pagefile.NewMemFile(testPageSize), []Record{{Rect: geom.R(0, 0, 0, 1), OID: 1}})
	if err == nil {
		t.Fatal("degenerate rect accepted")
	}
}
