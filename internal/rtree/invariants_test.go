package rtree

import (
	"math/rand"
	"slices"
	"testing"
)

// TestCheckInvariantsSidecars corrupts each side-car of a built tree —
// a kept MBR, a kept sweep order out of order or not a permutation, and
// a leaf's earned text — and expects CheckInvariants to name it, then
// to pass again once the side-car is restored.
func TestCheckInvariantsSidecars(t *testing.T) {
	rstar, err := NewArena(testPageSize, rstarOpts, "R*-tree")
	if err != nil {
		t.Fatal(err)
	}
	rplus, err := NewRPlusArena(testPageSize)
	if err != nil {
		t.Fatal(err)
	}
	for name, tree := range map[string]searcher{"R*": rstar, "R+": rplus} {
		rng := rand.New(rand.NewSource(1))
		for oid := uint64(1); oid <= 300; oid++ {
			if err := tree.Insert(randRect(rng, 1000, 40), oid); err != nil {
				t.Fatal(err)
			}
		}
		_, root := arenaOf(t, tree)
		if root.isLeaf() {
			t.Fatalf("%s: 300 entries fit the root", name)
		}
		leaf := root
		for !leaf.isLeaf() {
			leaf = leaf.entries[0].Child
		}
		if len(leaf.entries) < 2 || leaf.entries[0].Rect.Min.X == leaf.entries[1].Rect.Min.X {
			t.Fatalf("%s: the first leaf has no two entries of distinct low x", name)
		}
		root.swept()
		leaf.swept()
		leaf.renderText()
		if err := tree.CheckInvariants(); err != nil {
			t.Fatalf("%s: side-cars as built: %v", name, err)
		}

		leafSweep, text := leaf.sweep.Load(), leaf.text.Load()
		shrunk := leafSweep.mbr
		shrunk.Max.X = shrunk.Min.X
		reversed := slices.Clone(leafSweep.ord)
		slices.Reverse(reversed)
		repeated := slices.Clone(leafSweep.ord)
		repeated[1] = repeated[0]
		wrong := []byte(text.s)
		wrong[1] = '9' + '0' - wrong[1] // another digit
		for _, c := range []struct {
			what    string
			corrupt func()
			restore func()
		}{
			{"kept MBR", func() { leaf.sweep.Store(&nodeSweep{mbr: shrunk, ord: leafSweep.ord}) }, func() { leaf.sweep.Store(leafSweep) }},
			{"unsorted order", func() { leaf.sweep.Store(&nodeSweep{mbr: leafSweep.mbr, ord: reversed}) }, func() { leaf.sweep.Store(leafSweep) }},
			{"order not a permutation", func() { leaf.sweep.Store(&nodeSweep{mbr: leafSweep.mbr, ord: repeated}) }, func() { leaf.sweep.Store(leafSweep) }},
			{"leaf text", func() { leaf.text.Store(&leafText{s: string(wrong), off: text.off}) }, func() { leaf.text.Store(text) }},
		} {
			c.corrupt()
			if err := tree.CheckInvariants(); err == nil {
				t.Errorf("%s: a corrupt %s passed CheckInvariants", name, c.what)
			}
			c.restore()
			if err := tree.CheckInvariants(); err != nil {
				t.Fatalf("%s: restored %s: %v", name, c.what, err)
			}
		}
	}
}
