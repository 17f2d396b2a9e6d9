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

// TestMultiPolygonReferenceBetweenComponents: a simple polygon lying
// between the two components of a MultiPolygon reference is disjoint
// from it while its MBR stands inside the reference's, a configuration
// the contiguous disjoint row excludes. A contiguous processor takes
// the Section 7 rows from the reference's type, so it finds the
// polygon, by exact geometry rather than a direct accept; a
// conjunction over that reference, which Table 4 (a composition of
// simple regions) no longer judges, finds it too. Stored side by side,
// the two join as disjoint, and not as overlap, under
// JoinOptions.NonContiguous: the join reads no object's type.
func TestMultiPolygonReferenceBetweenComponents(t *testing.T) {
	between := geom.R(2, 0, 3, 4).Polygon()
	ref := geom.MultiPolygon{geom.R(0, 1, 1, 2).Polygon(), geom.R(4, 1, 5, 2).Polygon()}
	if got := geom.RelateRegions(between, ref); got != topo.Disjoint {
		t.Fatalf("fixture relates as %v", got)
	}
	idx, err := index.NewWithPageSize(index.KindRTree, 512)
	if err != nil {
		t.Fatal(err)
	}
	if err := idx.Insert(between.Bounds(), 1); err != nil {
		t.Fatal(err)
	}
	p := &Processor{Idx: idx, Objects: RegionStore{1: between}}
	for _, rel := range topo.All() {
		res, err := p.Query(rel, ref)
		if err != nil {
			t.Fatal(err)
		}
		if want := map[bool]int{true: 1}[rel == topo.Disjoint]; len(res.Matches) != want {
			t.Errorf("%v: %d matches, want %d", rel, len(res.Matches), want)
		}
		if res.Stats.DirectAccepts != 0 {
			t.Errorf("%v: %d direct accepts of a configuration only geometry decides", rel, res.Stats.DirectAccepts)
		}
	}
	res, err := p.QueryConjunction(topo.Disjoint, ref, topo.Overlap, geom.R(2.5, 3, 6, 6).Polygon())
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.ShortCircuited || len(res.Matches) != 1 {
		t.Fatalf("disjoint from the archipelago ∧ overlapping a square: %d matches, %+v", len(res.Matches), res.Stats)
	}
	// Stored, the two join as disjoint under the Section 7 tables.
	if err := idx.Insert(ref.Bounds(), 2); err != nil {
		t.Fatal(err)
	}
	objs := RegionStore{1: between, 2: ref}
	for rel, want := range map[topo.Relation]int{topo.Disjoint: 2, topo.Overlap: 0} {
		res, err := JoinTopological(idx, idx, topo.NewSet(rel), JoinOptions{LeftObjects: objs, RightObjects: objs, NonContiguous: true})
		if err != nil || len(res.Pairs) != want {
			t.Errorf("non-contiguous self-join, %v: %d pairs, want %d (%v)", rel, len(res.Pairs), want, err)
		}
	}
}
