package index_test

import (
	"io"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"mbrtopo/internal/index"
	"mbrtopo/internal/rtree"
	"mbrtopo/internal/workload"
)

// allocated returns the bytes fn allocates.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestLoadBulkAllocation bounds what an STR bulk load allocates: the
// leaf level is one 48-byte Entry per record, written in x-centre order
// and kept by the packed leaves, and everything else — node headers, the
// upper levels, the chunk list and the pack's scratch, which is the
// bucket counts (2 B per record) and one slab-sized buffer — is a few
// bytes per record more. A copy of the records anywhere on the way (into
// another record type, into a level-sized sort buffer, into per-node
// slices) costs at least 48 bytes more per record and fails the bound.
func TestLoadBulkAllocation(t *testing.T) {
	const n, maxPerRecord = 100000, 64
	items := workload.NewDataset(workload.Medium, n, 0, 3).Items
	idx, err := index.New(index.KindRStar)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := index.LoadBulk(idx, items); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	perRecord := float64(after.TotalAlloc-before.TotalAlloc) / n
	t.Logf("LoadBulk of %d records: %.1f B and %.2f mallocs per record",
		n, perRecord, float64(after.Mallocs-before.Mallocs)/n)
	if perRecord > maxPerRecord {
		t.Fatalf("LoadBulk allocated %.1f B per record, want at most %d", perRecord, maxPerRecord)
	}
}

// TestFlatImageAllocation bounds what writing and opening an MBRFLAT1
// image of 100 000 entries allocate. The writer walks the pinned tree
// twice into reused per-level record buffers, so a copy of the image
// (about 42 bytes per entry) anywhere on the way fails its bound of 16.
// The reader decodes record by record from the file: each entry costs
// the 48-byte Entry the adopted tree keeps, and a whole-image buffer
// beside the decoded nodes fails the bound of 64.
func TestFlatImageAllocation(t *testing.T) {
	const n, maxWrite, maxOpen = 100000, 16, 64
	idx, err := index.New(index.KindRStar)
	if err != nil {
		t.Fatal(err)
	}
	if err := index.LoadBulk(idx, workload.NewDataset(workload.Medium, n, 0, 3).Items); err != nil {
		t.Fatal(err)
	}
	var werr error
	perEntry := float64(allocated(func() { werr = index.WriteFlat(idx, io.Discard, 1) })) / n
	if werr != nil {
		t.Fatal(werr)
	}
	t.Logf("WriteFlat of %d entries: %.1f B per entry", n, perEntry)
	if perEntry > maxWrite {
		t.Errorf("WriteFlat allocated %.1f B per entry, want at most %d", perEntry, maxWrite)
	}

	path := filepath.Join(t.TempDir(), "main.flat")
	out, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := index.WriteFlat(idx, out, 1); err != nil {
		t.Fatal(err)
	}
	if err := out.Close(); err != nil {
		t.Fatal(err)
	}
	in, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	var flat *rtree.FlatTree
	perEntry = float64(allocated(func() { flat, err = rtree.OpenFlat(in) })) / n
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("OpenFlat of %d entries from a file: %.1f B per entry", n, perEntry)
	if perEntry > maxOpen {
		t.Errorf("OpenFlat allocated %.1f B per entry, want at most %d", perEntry, maxOpen)
	}
	if back, err := index.Adopt(index.KindRStar, index.PaperPageSize, flat); err != nil || back.Len() != n {
		t.Fatalf("adopting the image: %v", err)
	}
}
