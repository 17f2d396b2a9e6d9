package query

import (
	"slices"
	"testing"

	"mbrtopo/internal/topo"
)

// TestSecondFilterCorrectAndEffective: with the convex-hull second
// filter the results stay exactly the brute-force answers, the
// accounting identity extends (candidates = direct + hull-resolved +
// exact tests), and the exact-test count drops for at least one
// relation.
func TestSecondFilterCorrectAndEffective(t *testing.T) {
	sc := buildScenario(t, 47, 450)
	ref := sc.objects[5]
	plain := &Processor{Idx: sc.indexes["R-tree"], Objects: sc.objects}
	hulled := &Processor{Idx: sc.indexes["R-tree"], Objects: sc.objects, SecondFilter: true}

	totalResolved := 0
	for _, rel := range topo.All() {
		want := sc.bruteForce(topo.NewSet(rel), ref)
		res, err := hulled.Query(rel, ref)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(oids(res.Matches), want) {
			t.Fatalf("%v: second filter changed results: %d vs %d", rel, len(res.Matches), len(want))
		}
		s := res.Stats
		if s.Candidates != s.DirectAccepts+s.HullResolved+s.RefinementTests {
			t.Fatalf("%v: accounting broken: %+v", rel, s)
		}
		plainRes, err := plain.Query(rel, ref)
		if err != nil {
			t.Fatal(err)
		}
		if s.RefinementTests > plainRes.Stats.RefinementTests {
			t.Fatalf("%v: second filter increased exact tests (%d > %d)",
				rel, s.RefinementTests, plainRes.Stats.RefinementTests)
		}
		totalResolved += s.HullResolved
	}
	if totalResolved == 0 {
		t.Fatal("the hull filter never resolved a candidate")
	}
}

// TestSecondFilterDisjunction: hull resolution also applies to
// low-resolution queries.
func TestSecondFilterDisjunction(t *testing.T) {
	sc := buildScenario(t, 8, 300)
	ref := sc.objects[9]
	hulled := &Processor{Idx: sc.indexes["R*-tree"], Objects: sc.objects, SecondFilter: true}
	res, err := hulled.QuerySet(topo.In, ref)
	if err != nil {
		t.Fatal(err)
	}
	want := sc.bruteForce(topo.In, ref)
	if !slices.Equal(oids(res.Matches), want) {
		t.Fatalf("in-query with second filter: %d vs %d", len(res.Matches), len(want))
	}
}
