package experiments

import (
	"testing"

	"mbrtopo/internal/topo"
	"mbrtopo/internal/workload"
)

func TestPackingShape(t *testing.T) {
	cfg := Quick()
	res, err := RunPacking(cfg, workload.Medium)
	if err != nil {
		t.Fatal(err)
	}
	if res.PackedPages >= res.GrownPages {
		t.Errorf("packed pages %d not fewer than grown %d", res.PackedPages, res.GrownPages)
	}
	for _, rel := range topo.All() {
		if res.PackedAccesses[rel] > res.GrownAccesses[rel]*1.25+1 {
			t.Errorf("%v: packed accesses %.1f much worse than grown %.1f",
				rel, res.PackedAccesses[rel], res.GrownAccesses[rel])
		}
	}
}

func TestSeedSweepShape(t *testing.T) {
	cfg := Quick()
	res, err := RunSeedSweep(cfg, []int64{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if !res.ShapeStable() {
		t.Error("cost-group ordering unstable across seeds")
	}
	if len(res.Accesses[topo.Meet]) != 4 {
		t.Error("missing seed measurements")
	}
}

func TestNonContiguousExperiment(t *testing.T) {
	res, err := RunNonContiguous(Quick())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		if row.RelaxedConfigs < row.ContiguousConfigs {
			t.Errorf("%v: relaxed configs shrank", row.Relation)
		}
		if row.RelaxedHits < row.ContiguousHits-1e-9 {
			t.Errorf("%v: relaxed hits %.1f below strict %.1f", row.Relation, row.RelaxedHits, row.ContiguousHits)
		}
		switch row.Relation {
		case topo.Disjoint:
			if row.RelaxedConfigs != 169 {
				t.Errorf("relaxed disjoint configs = %d", row.RelaxedConfigs)
			}
		case topo.Meet:
			if row.RelaxedConfigs != 121 {
				t.Errorf("relaxed meet configs = %d", row.RelaxedConfigs)
			}
		default:
			if row.RelaxedConfigs != row.ContiguousConfigs {
				t.Errorf("%v should not relax", row.Relation)
			}
		}
	}
}

func TestJoinExperiment(t *testing.T) {
	cfg := Quick()
	res, err := RunJoin(cfg, workload.Medium)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		if row.JoinAccesses == 0 || row.NestedAccesses == 0 {
			t.Fatalf("%v: zero accesses recorded", row.Relation)
		}
		if row.JoinAccesses > row.NestedAccesses {
			t.Errorf("%v: join (%d) costlier than nested (%d)", row.Relation, row.JoinAccesses, row.NestedAccesses)
		}
	}
}

func TestSecondFilterExperiment(t *testing.T) {
	cfg := Quick()
	res, err := RunSecondFilter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	anySaved := false
	for _, row := range res.Rows {
		if row.ExactHull > row.ExactPlain+1e-9 {
			t.Errorf("%v: hull filter increased exact tests", row.Relation)
		}
		if row.HullResolved > 0 {
			anySaved = true
		}
	}
	if !anySaved {
		t.Error("hull filter resolved nothing")
	}
}
