package index_test

import (
	"runtime"
	"testing"

	"mbrtopo/internal/index"
	"mbrtopo/internal/workload"
)

// TestLoadBulkAllocation bounds what an STR bulk load allocates: the
// leaf level is one 48-byte Entry per record, sorted in place and kept
// by the packed leaves, and everything else — node headers, the upper
// levels, the chunk list — is a few bytes per record more. A copy of
// the records anywhere on the way (into another record type, into a
// sort buffer, into per-node slices) costs at least 48 bytes more per
// record and fails the bound.
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
