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
// excludes R5_9, so the contiguous-mode processor misses it — the
// non-contiguous mode finds it.
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

	contiguous := &Processor{Idx: idx, Objects: store}
	res, err := contiguous.Query(topo.Disjoint, ref)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) != 0 {
		t.Fatalf("contiguous mode unexpectedly found the archipelago (config is in its disjoint row?)")
	}

	relaxed := &Processor{Idx: idx, Objects: store, NonContiguous: true}
	res, err = relaxed.Query(topo.Disjoint, ref)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) != 1 || res.Matches[0].OID != 1 {
		t.Fatalf("non-contiguous mode missed the archipelago: %+v", res.Matches)
	}
}

// TestNonContiguousStatsAccounting mirrors the contiguous accounting
// identities under the relaxed tables, over the archipelagos FuzzQuery
// draws.
func TestNonContiguousStatsAccounting(t *testing.T) {
	s := newQuerySim(t, 3, index.KindRStar)
	s.build(qMulti, 200)
	proc := &Processor{Idx: s.trees[0].idx, Objects: s.regions, NonContiguous: true}
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
