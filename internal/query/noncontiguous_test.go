package query

import (
	"testing"

	"mbrtopo/internal/geom"
	"mbrtopo/internal/index"
	"mbrtopo/internal/topo"
)

// TestContiguousFilterMissesArchipelago demonstrates why the Section 7
// tables are necessary: a two-part object flanking the reference (MBR
// configuration R5_9) is disjoint from it, the contiguous disjoint row
// excludes R5_9, so the contiguous filter (no store, no flag) misses it
// — a processor over its RegionStore takes the Section 7 rows and finds
// it.
func TestContiguousFilterMissesArchipelago(t *testing.T) {
	ref := geom.R(40, 40, 50, 50).Polygon()
	flank := geom.MultiPolygon{
		geom.R(30, 42, 36, 48).Polygon(),
		geom.R(54, 42, 60, 48).Polygon(),
	}
	if got := geom.RelateRegions(flank, ref); got != topo.Disjoint {
		t.Fatalf("fixture relates as %v", got)
	}
	idx, err := index.NewWithPageSize(index.KindRTree, 512)
	if err != nil {
		t.Fatal(err)
	}
	store := RegionStore{1: flank}
	if err := idx.Insert(flank.Bounds(), 1); err != nil {
		t.Fatal(err)
	}

	contiguous := &Processor{Idx: idx}
	res, err := contiguous.Query(topo.Disjoint, ref)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) != 0 {
		t.Fatalf("the contiguous filter unexpectedly found the archipelago (config is in its disjoint row?)")
	}

	relaxed := &Processor{Idx: idx, Objects: store}
	res, err = relaxed.Query(topo.Disjoint, ref)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) != 1 || res.Matches[0].OID != 1 {
		t.Fatalf("the RegionStore's processor missed the archipelago: %+v", res.Matches)
	}
}

// TestNonContiguousStatsAccounting mirrors the contiguous accounting
// identities under the relaxed tables, over the archipelagos FuzzQuery
// draws.
func TestNonContiguousStatsAccounting(t *testing.T) {
	s := newQuerySim(t, 3, index.KindRStar)
	s.build(qMulti, 200)
	proc := &Processor{Idx: s.trees[0].idx, Objects: s.regions}
	ref := geom.Rect{Min: s.at(6, 6), Max: s.at(15, 14)}.Polygon()
	for _, rel := range topo.All() {
		res, err := proc.Query(rel, ref)
		if err != nil {
			t.Fatal(err)
		}
		s := res.Stats
		if s.Candidates != s.DirectAccepts+s.RefinementTests {
			t.Errorf("%v: accounting broken: %+v", rel, s)
		}
		if len(res.Matches) != s.Candidates-s.FalseHits {
			t.Errorf("%v: match count broken: %+v", rel, s)
		}
	}
}

// TestMultiPolygonReferenceBetweenComponents: the bar [2,3]×[0,4]
// lies between the two components of the archipelago {[0,1]×[1,2],
// [4,5]×[1,2]} and is disjoint from it, while its MBR stands inside the
// archipelago's, a configuration the contiguous disjoint row excludes
// and the contiguous overlap row direct-accepts. Whichever of the two
// is stored and whichever is the reference, a processor with default
// options takes the Section 7 rows (from its RegionStore, and from a
// MultiPolygon reference), so it answers disjoint after an exact test
// and never overlap; a conjunction over the archipelago, which Table 4
// judges, finds the bar too. Stored side by side, the two join as
// disjoint, and not as overlap, under default JoinOptions: the join's
// RegionStores decide its tables as the processor's does.
func TestMultiPolygonReferenceBetweenComponents(t *testing.T) {
	bar := geom.R(2, 0, 3, 4).Polygon()
	archipelago := geom.MultiPolygon{geom.R(0, 1, 1, 2).Polygon(), geom.R(4, 1, 5, 2).Polygon()}
	if got := geom.RelateRegions(bar, archipelago); got != topo.Disjoint {
		t.Fatalf("fixture relates as %v", got)
	}
	objs := RegionStore{1: bar, 2: archipelago}
	tree := func(oids ...uint64) index.Index {
		idx, err := index.NewWithPageSize(index.KindRTree, 512)
		if err != nil {
			t.Fatal(err)
		}
		for _, oid := range oids {
			if err := idx.Insert(objs[oid].Bounds(), oid); err != nil {
				t.Fatal(err)
			}
		}
		return idx
	}
	for _, c := range []struct {
		stored uint64
		ref    geom.Region
	}{{2, bar}, {1, archipelago}} {
		p := &Processor{Idx: tree(c.stored), Objects: objs}
		for _, rel := range topo.All() {
			res, err := p.Query(rel, c.ref)
			if err != nil {
				t.Fatal(err)
			}
			n := map[bool]int{true: 1}[rel == topo.Disjoint]
			if st := res.Stats; len(res.Matches) != n || st.DirectAccepts != 0 || rel == topo.Disjoint && st.RefinementTests != 1 {
				t.Errorf("object %d, %v: %d matches from %+v, want %d after exact tests alone", c.stored, rel, len(res.Matches), st, n)
			}
		}
	}
	p := &Processor{Idx: tree(1), Objects: objs}
	res, err := p.QueryConjunction(topo.Disjoint, archipelago, topo.Overlap, geom.R(2.5, 3, 6, 6).Polygon())
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.ShortCircuited || len(res.Matches) != 1 {
		t.Fatalf("disjoint from the archipelago ∧ overlapping a square: %d matches, %+v", len(res.Matches), res.Stats)
	}
	both := tree(1, 2)
	for rel, want := range map[topo.Relation]int{topo.Disjoint: 2, topo.Overlap: 0} {
		res, err := JoinTopological(both, both, topo.NewSet(rel), JoinOptions{LeftObjects: objs, RightObjects: objs})
		if err != nil || len(res.Pairs) != want || res.Stats.DirectAccepts != 0 {
			t.Errorf("refined self-join, %v: %d pairs from %+v, want %d (%v)", rel, len(res.Pairs), res.Stats, want, err)
		}
	}
}
