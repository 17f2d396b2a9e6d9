package rtree_test

import (
	"fmt"
	"testing"

	"mbrtopo/internal/index"
	"mbrtopo/internal/rtree"
	"mbrtopo/internal/workload"
)

// TestPackServedDataTakesBucketPass packs the data sets topod and the
// experiments serve — every size class at 10 000 and 100 000 objects,
// seeds 1995, 1996 and 3, the paper's page size — and requires that no
// sort of the pack took the tie rule. The answers would not change if
// one did, so without this test a pack slowed back to pdqsort would
// pass everything else.
func TestPackServedDataTakesBucketPass(t *testing.T) {
	for _, class := range workload.AllSizeClasses() {
		for _, n := range []int{10000, 100000} {
			for _, seed := range []int64{1995, 1996, 3} {
				name := fmt.Sprintf("%s/%d/seed%d", class, n, seed)
				ties, err := rtree.PackTies(index.PaperPageSize, workload.NewDataset(class, n, 0, seed).Items)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if ties != 0 {
					t.Errorf("%s: %d sorts of the pack took the tie rule, want 0", name, ties)
				}
			}
		}
	}
}
