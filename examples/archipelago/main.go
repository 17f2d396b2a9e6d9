// Archipelago example (the paper's Section 7): non-contiguous regions
// such as countries with islands. The contiguous filter theory would
// MISS answers here — an island nation flanking a strait is disjoint
// from it although their MBRs stand in a crossing configuration that
// contiguous regions cannot exhibit while disjoint. A processor over a
// RegionStore takes the relaxed candidate tables and stays exact.
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"mbrtopo"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	idx, err := mbrtopo.NewRStar()
	if err != nil {
		return err
	}
	store := mbrtopo.RegionStore{}

	add := func(oid uint64, r mbrtopo.Region) error {
		if err := r.Validate(); err != nil {
			return fmt.Errorf("oid %d: %w", oid, err)
		}
		store[oid] = r
		return idx.Insert(r.Bounds(), oid)
	}

	// The strait: a narrow vertical sea lane.
	strait := mbrtopo.R(45, 0, 55, 100).Polygon()

	// An island nation with territory on both shores of the strait —
	// its MBR covers the strait's x-projection while sitting inside the
	// strait's y-projection (configuration R5_9).
	twoShores := mbrtopo.MultiPolygon{
		mbrtopo.R(20, 40, 44, 60).Polygon(),
		mbrtopo.R(56, 40, 80, 60).Polygon(),
	}
	if err := add(1, twoShores); err != nil {
		return err
	}

	// An archipelago inside a bay (all components within the strait).
	inStrait := mbrtopo.MultiPolygon{
		mbrtopo.R(47, 10, 49, 13).Polygon(),
		mbrtopo.R(51, 20, 53, 24).Polygon(),
	}
	if err := add(2, inStrait); err != nil {
		return err
	}

	// A coastal state meeting the strait's west bank.
	coastal := mbrtopo.MultiPolygon{
		mbrtopo.R(30, 70, 45, 90).Polygon(),
		mbrtopo.R(25, 60, 35, 68).Polygon(),
	}
	if err := add(3, coastal); err != nil {
		return err
	}

	// A far-away island group.
	if err := add(4, mbrtopo.MultiPolygon{
		mbrtopo.R(85, 85, 90, 90).Polygon(),
		mbrtopo.R(92, 92, 97, 97).Polygon(),
	}); err != nil {
		return err
	}

	fmt.Fprintln(w, "territories vs the strait (exact):")
	for oid := uint64(1); oid <= 4; oid++ {
		fmt.Fprintf(w, "  oid %d: %v (MBR config %v)\n",
			oid, mbrtopo.RelateRegions(store[oid], strait),
			mbrtopo.ConfigOf(store[oid].Bounds(), strait.Bounds()))
	}

	// No store: the contiguous filter, whose candidates are tested here.
	contiguous := &mbrtopo.Processor{Idx: idx}
	relaxed := &mbrtopo.Processor{Idx: idx, Objects: store}

	fmt.Fprintln(w, "\nquery: territories DISJOINT from the strait")
	res, err := contiguous.Query(mbrtopo.Disjoint, strait)
	if err != nil {
		return err
	}
	var disjoint []uint64
	for _, oid := range oidsOf(res) {
		if mbrtopo.RelateRegions(store[oid], strait) == mbrtopo.Disjoint {
			disjoint = append(disjoint, oid)
		}
	}
	fmt.Fprintf(w, "  contiguous tables:     %v   ← misses oid 1 (crossing config excluded)\n", disjoint)
	res, err = relaxed.Query(mbrtopo.Disjoint, strait)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "  non-contiguous tables: %v\n", oidsOf(res))

	fmt.Fprintln(w, "\nquery: territories INSIDE the strait")
	res, err = relaxed.Query(mbrtopo.Inside, strait)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "  non-contiguous tables: %v\n", oidsOf(res))

	fmt.Fprintln(w, "\nquery: territories that MEET the strait")
	res, err = relaxed.Query(mbrtopo.Meet, strait)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "  non-contiguous tables: %v\n", oidsOf(res))
	return nil
}

func oidsOf(r mbrtopo.Result) []uint64 {
	out := make([]uint64, 0, len(r.Matches))
	for _, m := range r.Matches {
		out = append(out, m.OID)
	}
	return out
}
