package query

import (
	"math/rand"
	"sort"
	"testing"

	"mbrtopo/internal/direction"
	"mbrtopo/internal/geom"
	"mbrtopo/internal/index"
	"mbrtopo/internal/workload"
)

// TestQueryDirectionAllTrees compares direction retrieval with brute
// force for all thirteen relations on all access methods.
func TestQueryDirectionAllTrees(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	rects := map[uint64]geom.Rect{}
	indexes := map[string]index.Index{}
	for oid := uint64(1); oid <= 500; oid++ {
		rects[oid] = workload.RandomRect(rng, workload.Medium)
	}
	for _, kind := range index.AllKinds() {
		idx, err := index.NewWithPageSize(kind, 512)
		if err != nil {
			t.Fatal(err)
		}
		for oid, r := range rects {
			if err := idx.Insert(r, oid); err != nil {
				t.Fatal(err)
			}
		}
		indexes[kind.String()] = idx
	}
	refs := []geom.Rect{
		workload.RandomRect(rng, workload.Large),
		geom.R(450, 450, 520, 530),
		geom.R(10, 900, 120, 980),
	}
	brute := func(rel direction.Relation, q geom.Rect) []uint64 {
		var out []uint64
		for oid, r := range rects {
			if direction.Holds(rel, r, q) {
				out = append(out, oid)
			}
		}
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		return out
	}
	for name, idx := range indexes {
		proc := &Processor{Idx: idx}
		for _, q := range refs {
			for _, rel := range direction.All() {
				res, err := proc.QueryDirection(rel, q)
				if err != nil {
					t.Fatalf("%s %v: %v", name, rel, err)
				}
				want := brute(rel, q)
				if !eqU64(oids(res.Matches), want) {
					t.Fatalf("%s %v: got %d, want %d", name, rel, len(res.Matches), len(want))
				}
				if res.Stats.RefinementTests != 0 {
					t.Fatalf("%s %v: direction query refined", name, rel)
				}
			}
		}
	}
}

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
