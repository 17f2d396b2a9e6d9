package query

import (
	"math/rand"
	"testing"

	"mbrtopo/internal/direction"
	"mbrtopo/internal/geom"
	"mbrtopo/internal/index"
	"mbrtopo/internal/workload"
)

// TestQueryDirectionTilesPartitionResults: over any reference, the
// nine tiles partition the whole data set.
func TestQueryDirectionTilesPartitionResults(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	idx, err := index.NewWithPageSize(index.KindRStar, 512)
	if err != nil {
		t.Fatal(err)
	}
	n := 300
	for oid := uint64(1); oid <= uint64(n); oid++ {
		if err := idx.Insert(workload.RandomRect(rng, workload.Small), oid); err != nil {
			t.Fatal(err)
		}
	}
	proc := &Processor{Idx: idx}
	q := geom.R(400, 400, 600, 600)
	seen := map[uint64]int{}
	for _, rel := range direction.All()[:direction.StrictNorth] { // the nine tiles
		res, err := proc.QueryDirection(rel, q)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range res.Matches {
			seen[m.OID]++
		}
	}
	if len(seen) != n {
		t.Fatalf("tiles cover %d of %d objects", len(seen), n)
	}
	for oid, k := range seen {
		if k != 1 {
			t.Fatalf("oid %d in %d tiles", oid, k)
		}
	}
}

func TestQueryDirectionErrors(t *testing.T) {
	idx, _ := index.NewWithPageSize(index.KindRTree, 512)
	proc := &Processor{Idx: idx}
	if _, err := proc.QueryDirection(direction.Relation(99), geom.R(0, 0, 1, 1)); err == nil {
		t.Error("invalid relation accepted")
	}
	if _, err := proc.QueryDirection(direction.North, geom.R(1, 1, 1, 2)); err == nil {
		t.Error("degenerate reference accepted")
	}
}
