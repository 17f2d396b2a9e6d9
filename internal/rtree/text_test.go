package rtree

import (
	"context"
	"math"
	"math/rand"
	"sync"
	"testing"

	"mbrtopo/internal/geom"
)

// hitSearcher is what the side-car tests drive: the three mutable trees
// and the checkpoint image.
type hitSearcher interface {
	SearchHits(context.Context, func(geom.Rect) bool, func(geom.Rect) bool, func(Hit) bool) (TraversalStats, error)
}

func everything(geom.Rect) bool { return true }

// scanTexts runs one full scan asking every hit for its text, fails on
// a text that is not the wire form of the hit's own rectangle, and
// returns how many hits came with text and how many without.
func scanTexts(t testing.TB, label string, s hitSearcher) (with, without int) {
	t.Helper()
	var scratch []byte
	_, err := s.SearchHits(context.Background(), everything, everything, func(h Hit) bool {
		text := h.Text()
		if text == "" {
			without++
			return true
		}
		with++
		if scratch = h.Rect.AppendWire(scratch[:0]); text != string(scratch) {
			t.Errorf("%s: oid %d holds %v but its leaf's text says %s", label, h.OID, h.Rect, text)
			return false
		}
		return true
	})
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	return with, without
}

// liveNodes is the set of node versions a tree's published root
// reaches.
func liveNodes(t *testing.T, tree any) map[*node]bool {
	t.Helper()
	_, root := arenaOf(t, tree)
	out := map[*node]bool{}
	var walk func(n *node)
	walk = func(n *node) {
		out[n] = true
		for _, e := range n.entries {
			if e.Child != nil {
				walk(e.Child)
			}
		}
	}
	walk(root)
	return out
}

// textHeld sums what the side-cars of the given nodes hold: leaf
// entries covered, and bytes of text plus offsets.
func textHeld(nodes map[*node]bool) (entries, bytes int) {
	for n := range nodes {
		if t := n.text.Load(); t != nil {
			entries += len(n.entries)
			bytes += len(t.s) + 4*len(t.off)
		}
	}
	return entries, bytes
}

func imageNodes(f *FlatTree) map[*node]bool {
	out := map[*node]bool{}
	for i := range f.nodes {
		out[&f.nodes[i]] = true
	}
	return out
}

func requireUnearned(t *testing.T, label string, nodes map[*node]bool) {
	t.Helper()
	for n := range nodes {
		if n.text.Load() != nil || n.rented.Load() != 0 {
			t.Fatalf("%s: a level-%d node already has a side-car (text %v, %d rented)", label, n.level, n.text.Load() != nil, n.rented.Load())
		}
	}
}

// TestTextEarnedByRentOrBuy pins the rule on every source: a leaf hands
// out no text until consumers have rendered as many of its entries
// themselves as it holds — one full scan — and all of it, equal to the
// renderer's bytes, from the next request on; and a consumer that does
// not ask (SearchCtx, kNN) earns nothing.
func TestTextEarnedByRentOrBuy(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	recs := make([]Record, 600)
	for i := range recs {
		recs[i] = Record{Rect: randRect(rng, 1000, 30), OID: uint64(i + 1)}
	}
	tree, err := newTestRStar()
	if err != nil {
		t.Fatal(err)
	}
	rplus, err := NewRPlusArena(testPageSize)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		for _, s := range []searcher{tree, rplus} {
			if err := s.Insert(r.Rect, r.OID); err != nil {
				t.Fatal(err)
			}
		}
	}
	flat, err := OpenFlatBytes(flatEncode(t, tree, 1))
	if err != nil {
		t.Fatal(err)
	}
	adopted, err := Adopt(flat, testPageSize, rstarOpts, "R*-tree")
	if err != nil {
		t.Fatal(err)
	}

	// Not asking earns nothing.
	for i := 0; i < 3; i++ {
		collect(t, tree, geom.R(0, 0, 1000, 1000))
		if _, _, err := tree.NearestCtx(context.Background(), geom.Point{X: 500, Y: 500}, 10); err != nil {
			t.Fatal(err)
		}
	}
	requireUnearned(t, "after SearchCtx and kNN", liveNodes(t, tree))

	for name, s := range map[string]hitSearcher{"arena R*-tree": tree, "arena R+-tree": rplus, "adopted image": adopted} {
		if with, without := scanTexts(t, name+" scan 1", s); with != 0 || without < len(recs) {
			t.Fatalf("%s: first scan got text for %d hits and none for %d, want 0 and at least %d", name, with, without, len(recs))
		}
		if with, without := scanTexts(t, name+" scan 2", s); without != 0 || with < len(recs) {
			t.Fatalf("%s: second scan got text for %d hits and none for %d, want all and 0", name, with, without)
		}
	}
}

// TestTextFollowsNodeVersions: copy-on-write is the side-car's whole
// invalidation story. After Update and Delete+Insert of stored entries
// no hit ever carries the text of a rectangle it no longer has, every
// node version a mutation installs starts unearned, and the versions it
// replaced — text and all — are unreachable from the tree.
func TestTextFollowsNodeVersions(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for name, mk := range map[string]func() (kindTree, error){
		"R*-tree": func() (kindTree, error) { return newTestRStar() },
		"R+-tree": func() (kindTree, error) { return NewRPlusArena(testPageSize) },
	} {
		t.Run(name, func(t *testing.T) {
			tree, err := mk()
			if err != nil {
				t.Fatal(err)
			}
			hs := tree.(hitSearcher)
			live := map[uint64]geom.Rect{}
			for oid := uint64(1); oid <= 300; oid++ {
				live[oid] = randRect(rng, 1000, 30)
				if err := tree.Insert(live[oid], oid); err != nil {
					t.Fatal(err)
				}
			}
			earnAll := func(label string) {
				scanTexts(t, label, hs)
				if _, without := scanTexts(t, label, hs); without != 0 {
					t.Fatalf("%s: %d hits without text after two full scans", label, without)
				}
			}
			earnAll("warm-up")
			replaced := 0
			for step := 0; step < 60; step++ {
				oid := uint64(1 + rng.Intn(300))
				to := randRect(rng, 1000, 30)
				before := liveNodes(t, tree)
				err = move(tree, live[oid], to, oid)
				if err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				live[oid] = to
				after := liveNodes(t, tree)
				installed := map[*node]bool{}
				for n := range after {
					if !before[n] {
						installed[n] = true
					}
				}
				requireUnearned(t, "a version installed by the mutation", installed)
				for n := range before {
					if !after[n] && n.text.Load() != nil {
						replaced++
					}
				}
				// One scan: hits in untouched leaves still come with text,
				// those in the new versions without, and none with the
				// wrong one — scanTexts compares each to its own rectangle.
				seen := map[uint64]geom.Rect{}
				if _, err := hs.SearchHits(context.Background(), everything, everything, func(h Hit) bool {
					seen[h.OID] = h.Rect
					return true
				}); err != nil {
					t.Fatal(err)
				}
				if len(seen) != len(live) || seen[oid] != to {
					t.Fatalf("step %d: scan sees %d objects, oid %d at %v; want %d and %v", step, len(seen), oid, seen[oid], len(live), to)
				}
				with, without := scanTexts(t, "after a mutation", hs)
				if with == 0 || without == 0 {
					t.Fatalf("step %d: %d hits with text, %d without: want the touched leaves alone to have lost theirs", step, with, without)
				}
				if step%10 == 9 {
					earnAll("re-earning")
				}
			}
			if replaced == 0 {
				t.Fatal("no mutation ever replaced a leaf version that had earned its text")
			}
		})
	}
}

// TestTextRace runs, for the race detector, readers earning text on two
// trees adopted from one checkpoint image while a writer installs new
// versions in the second — the image's node versions are shared by both,
// so the same side-car is bought from either side.
func TestTextRace(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	src, err := newTestRStar()
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]Record, 800)
	for i := range recs {
		recs[i] = Record{Rect: randRect(rng, 1000, 30), OID: uint64(i + 1)}
	}
	if err := src.InsertBatch(recs); err != nil {
		t.Fatal(err)
	}
	flat, err := OpenFlatBytes(flatEncode(t, src, 1))
	if err != nil {
		t.Fatal(err)
	}
	unwritten, err := Adopt(flat, testPageSize, rstarOpts, "R*-tree")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	adopted := make(chan *Tree)
	stop := make(chan struct{})
	reader := func(label string, s hitSearcher) {
		defer wg.Done()
		for i := 0; ; i++ {
			if i >= 20 { // every reader gets its share, however fast the writer is
				select {
				case <-stop:
					return
				default:
				}
			}
			w := randRectSeeded(int64(i), 1000, 200)
			pred := func(r geom.Rect) bool { return r.Intersects(w) }
			var scratch []byte
			if _, err := s.SearchHits(context.Background(), pred, pred, func(h Hit) bool {
				if text := h.Text(); text != "" {
					if scratch = h.Rect.AppendWire(scratch[:0]); text != string(scratch) {
						t.Errorf("%s: oid %d holds %v, text says %s", label, h.OID, h.Rect, text)
						return false
					}
				}
				return true
			}); err != nil {
				t.Errorf("%s: %v", label, err)
				return
			}
		}
	}
	wg.Add(2)
	go reader("unwritten tree reader 1", unwritten)
	go reader("unwritten tree reader 2", unwritten)
	wg.Add(1)
	go func() {
		defer wg.Done()
		tree, err := Adopt(flat, testPageSize, rstarOpts, "R*-tree")
		if err != nil {
			t.Error(err)
			close(adopted)
			return
		}
		adopted <- tree
		wrng := rand.New(rand.NewSource(17))
		for i := 0; i < 400; i++ {
			r := recs[wrng.Intn(len(recs))]
			to := randRect(wrng, 1000, 30)
			if err := move(tree, r.Rect, to, r.OID); err == nil {
				recs[r.OID-1].Rect = to
			}
		}
		close(stop)
	}()
	if tree, ok := <-adopted; ok {
		wg.Add(2)
		go reader("written tree reader 1", tree)
		go reader("written tree reader 2", tree)
	} else {
		close(stop)
	}
	wg.Wait()
	if entries, _ := textHeld(imageNodes(flat)); entries == 0 {
		t.Fatal("the readers never bought a leaf of the image")
	}
}

func randRectSeeded(seed int64, world, maxSide float64) geom.Rect {
	return randRect(rand.New(rand.NewSource(seed)), world, maxSide)
}

// TestTextCost bounds what the side-car holds and when. Bulk load,
// writing and opening an image, and adoption render and allocate
// nothing for it; a fully earned index of full-precision coordinates in
// a 1000² world — what the benchmark's generator draws — holds at most
// 96 bytes of text and offsets a stored entry; and a rectangle JSON
// cannot carry keeps no text while its neighbours keep theirs.
func TestTextCost(t *testing.T) {
	rng := rand.New(rand.NewSource(1995))
	recs := make([]Record, 20000)
	for i := range recs {
		recs[i] = Record{Rect: randRect(rng, 1000, 15), OID: uint64(i + 1)}
	}
	tree, err := NewArena(2008, Options{Split: SplitRStar, RStarChooseSubtree: true, ForcedReinsert: true}, "R*-tree")
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.InsertBatch(recs); err != nil {
		t.Fatal(err)
	}
	requireUnearned(t, "after a bulk load", liveNodes(t, tree))
	flat, err := OpenFlatBytes(flatEncode(t, tree, 1))
	if err != nil {
		t.Fatal(err)
	}
	requireUnearned(t, "after WriteFlat", liveNodes(t, tree))
	requireUnearned(t, "after OpenFlatBytes", imageNodes(flat))
	adopted, err := Adopt(flat, 2008, Options{Split: SplitRStar, RStarChooseSubtree: true, ForcedReinsert: true}, "R*-tree")
	if err != nil {
		t.Fatal(err)
	}
	requireUnearned(t, "after Adopt", liveNodes(t, adopted))

	scanTexts(t, "adopted tree", adopted)
	if _, without := scanTexts(t, "adopted tree", adopted); without != 0 {
		t.Fatalf("%d hits without text after two full scans", without)
	}
	entries, bytes := textHeld(liveNodes(t, adopted))
	if entries != len(recs) {
		t.Fatalf("side-cars cover %d entries, the tree stores %d", entries, len(recs))
	}
	if per := float64(bytes) / float64(entries); per > 96 {
		t.Fatalf("%.1f bytes of text and offsets per stored entry, want at most 96", per)
	}
	// The image's nodes are the adopted tree's: bought once, held once.
	if ie, ib := textHeld(imageNodes(flat)); ie != entries || ib != bytes {
		t.Fatalf("the image holds text for %d entries (%d bytes), the tree that adopted it for %d (%d)", ie, ib, entries, bytes)
	}

	odd, err := newTestRStar()
	if err != nil {
		t.Fatal(err)
	}
	inf := geom.R(math.Inf(-1), 5, math.Inf(1), 6)
	for i, r := range []geom.Rect{geom.R(1, 1, 2, 2), inf, geom.R(3, 3, 4.5, 4.5)} {
		if err := odd.Insert(r, uint64(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	scanTexts(t, "leaf with an infinite rectangle", odd)
	texts := map[uint64]string{}
	if _, err := odd.SearchHits(context.Background(), everything, everything, func(h Hit) bool {
		texts[h.OID] = h.Text()
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if texts[1] != "[1,1,2,2]" || texts[2] != "" || texts[3] != "[3,3,4.5,4.5]" {
		t.Fatalf("texts beside an infinite rectangle: %q", texts)
	}
}
