// Quickstart: index a handful of regions and retrieve topological
// relations through the paper's 4-step strategy.
package main

import (
	"context"
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
	// An R*-tree over a simulated disk (50 entries per page).
	idx, err := mbrtopo.NewRStar()
	if err != nil {
		return err
	}
	// Exact region geometry for the refinement step.
	store := mbrtopo.MapStore{}

	var addErr error
	add := func(oid uint64, pg mbrtopo.Polygon) {
		store[oid] = pg
		if err := idx.Insert(pg.Bounds(), oid); err != nil && addErr == nil {
			addErr = err
		}
	}

	// A park and some features around it.
	park := mbrtopo.R(0, 0, 100, 80).Polygon()
	add(1, mbrtopo.R(20, 20, 40, 40).Polygon())   // pond strictly inside the park
	add(2, mbrtopo.R(0, 50, 30, 80).Polygon())    // lawn touching the park's boundary from inside
	add(3, mbrtopo.R(100, 0, 160, 60).Polygon())  // car park sharing the east fence
	add(4, mbrtopo.R(60, 60, 130, 120).Polygon()) // construction site overlapping the corner
	add(5, mbrtopo.R(300, 300, 320, 330).Polygon())
	if addErr != nil {
		return addErr
	}

	proc := &mbrtopo.Processor{Idx: idx, Objects: store}

	for _, rel := range []mbrtopo.Relation{
		mbrtopo.Inside, mbrtopo.CoveredBy, mbrtopo.Meet, mbrtopo.Overlap, mbrtopo.Disjoint,
	} {
		res, err := proc.Query(rel, park)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-10s →", rel)
		for _, m := range res.Matches {
			fmt.Fprintf(w, " oid=%d", m.OID)
		}
		fmt.Fprintf(w, "   (%d node accesses, %d candidates, %d refined)\n",
			res.Stats.NodeAccesses, res.Stats.Candidates, res.Stats.RefinementTests)
	}

	// Exact relations are also available directly.
	fmt.Fprintf(w, "\nexact check: Relate(pond, park) = %v\n", mbrtopo.Relate(store[1], park))
	fmt.Fprintf(w, "MBR-level configuration: %v\n", mbrtopo.ConfigOf(store[1].Bounds(), park.Bounds()))

	// Streaming: filter-step candidates arrive as the traversal finds
	// them, and the tree walk stops as soon as the consumer is done
	// (here after 2, by the limit; a break does the same). Cancel the
	// context to abort a slow query. iter.Pull2 turns the same iterator
	// into a next/stop pair for pull-style consumers.
	fmt.Fprintf(w, "\nstreaming overlap ∨ meet candidates (first 2):")
	for m, err := range proc.Matches(context.Background(),
		mbrtopo.NewSet(mbrtopo.Overlap, mbrtopo.Meet), park.Bounds(), 2) {
		if err != nil {
			return err
		}
		fmt.Fprintf(w, " oid=%d", m.OID)
	}
	fmt.Fprintln(w)
	return nil
}
