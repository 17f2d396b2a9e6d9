package rtree

import (
	"context"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"mbrtopo/internal/geom"
	"mbrtopo/internal/mbr"
	"mbrtopo/internal/topo"
)

// The tests of the sweep side-car (nodeSweep, join.go): what a join
// keeps beside an arena node version, and what it must never change —
// pairs, page counts, physical entry order.

var rstarOpts = Options{Split: SplitRStar, RStarChooseSubtree: true, ForcedReinsert: true}

// tieRects draws small rectangles off a coarse grid, so that equal low-x
// values, shared edges, node MBRs that only touch and entries reaching
// exactly to the edge of a clip region are the rule rather than the
// exception: where a kept order and a fresh sort may legitimately
// disagree, and the pairs must not. (Points and zero-extent segments
// cannot be stored — Insert refuses a rectangle that is not Valid — so a
// side of one grid step is as thin as the data get.)
func tieRects(rng *rand.Rand, n int, firstOID uint64) []Record {
	recs := make([]Record, n)
	for i := range recs {
		x, y := float64(rng.Intn(40)), float64(rng.Intn(40))
		recs[i] = Record{Rect: geom.R(x, y, x+float64(1+rng.Intn(3)), y+float64(1+rng.Intn(3))), OID: firstOID + uint64(i)}
	}
	return recs
}

// joinPreds are a join's two tests in both forms: compiled for the
// engine, and as the bare probes of the same sets for the oracle and
// for checking what the engine emits.
type joinPreds struct {
	prune, accept           mbr.Test
	pruneProbe, acceptProbe func(a, b geom.Rect) bool
}

// touchingPreds is intersectsPred compiled: the test of every
// point-sharing configuration at the leaves and above them.
var touchingPreds = joinPreds{
	prune: mbr.Compile(mbr.Touching()), accept: mbr.Compile(mbr.Touching()),
	pruneProbe: intersectsPred, acceptProbe: intersectsPred,
}

// setPreds are the engine tests of a join over a configuration set: the
// set at the leaves, its Table 2 join propagation above them.
func setPreds(cands mbr.ConfigSet) joinPreds {
	prop := mbr.JoinPropagation(cands)
	return joinPreds{
		prune: mbr.Compile(prop), accept: mbr.Compile(cands),
		pruneProbe:  func(a, b geom.Rect) bool { return prop.Has(mbr.ConfigOf(a, b)) },
		acceptProbe: func(a, b geom.Rect) bool { return cands.Has(mbr.ConfigOf(a, b)) },
	}
}

// joinWith runs the engine. nested forces the nested matcher, which no
// caller of JoinCtx can ask for: the accept test's masks pick the sweep.
func joinWith(ctx context.Context, j1, j2 *Tree, p joinPreds, emit func(a, b Hit) bool, opts JoinOptions, nested bool) (TraversalStats, error) {
	if !nested {
		return JoinCtx(ctx, j1, j2, p.prune, p.accept, emit, opts)
	}
	e := &joinEngine{prune: p.prune, accept: p.accept, emit: emit}
	return e.run(ctx, j1, j2, opts.Workers)
}

// enginePairs runs the engine and returns the pair multiset, the pairs
// in emission order and the stats.
func enginePairs(t *testing.T, j1, j2 *Tree, p joinPreds, opts JoinOptions, nested bool) (map[[2]uint64]int, [][2]uint64, TraversalStats) {
	t.Helper()
	pairs := map[[2]uint64]int{}
	var seq [][2]uint64
	ts, err := joinWith(context.Background(), j1, j2, p, func(a, b Hit) bool {
		if !p.acceptProbe(a.Rect, b.Rect) {
			t.Errorf("emitted %d %v with %d %v: not an accepted pair", a.OID, a.Rect, b.OID, b.Rect)
		}
		pairs[[2]uint64{a.OID, b.OID}]++
		seq = append(seq, [2]uint64{a.OID, b.OID})
		return true
	}, opts, nested)
	if err != nil {
		t.Fatalf("join (%+v, nested %v): %v", opts, nested, err)
	}
	return pairs, seq, ts
}

// sansStrategy drops the sweep-or-nested log and the count of pairs
// tested, the parts of a join's stats an oracle that never sweeps
// cannot say.
func sansStrategy(ts TraversalStats) TraversalStats {
	ts.SweepPairs, ts.NestedPairs, ts.PairTests = 0, 0, 0
	return ts
}

// joinSources builds the two trees a join can meet over the same
// records: a tree built by inserts, and a tree adopted from its
// MBRFLAT1 image. They hold the same nodes in the same entry order.
func joinSources(t *testing.T, recs []Record) map[string]*Tree {
	t.Helper()
	arena, err := newTestRStar()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := arena.Insert(r.Rect, r.OID); err != nil {
			t.Fatal(err)
		}
	}
	if arena.Height() < 3 {
		t.Fatalf("height %d: want internal-internal node pairs", arena.Height())
	}
	image, err := OpenFlatBytes(flatEncode(t, arena, 1))
	if err != nil {
		t.Fatal(err)
	}
	adopted, err := Adopt(image, testPageSize, rstarOpts, "R*-tree")
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*Tree{"arena": arena, "adopted": adopted}
}

// TestJoinSidecarDifferential: with the sweep order kept beside node
// versions, and each relation's sign masks steering the leaf sweep, a
// join emits the nested-loop oracle's pair multiset and reads its pages,
// on a built and an adopted tree, for each of the eight relations and
// for a set with disjoint in it (the nested matcher), joined with
// another tree and with itself, serial and on four workers — and the
// numbers are the ones the engine produced before it kept anything (the
// table below was printed by this test at that commit).
func TestJoinSidecarDifferential(t *testing.T) {
	type row struct{ pairs, accesses int }
	// relation set → {left ⋈ right, left ⋈ left}
	parent := map[string][2]row{
		"disjoint":       {{159781, 472}, {159332, 482}},
		"meet":           {{2216, 156}, {2956, 168}},
		"overlap":        {{822, 142}, {1382, 146}},
		"covered_by":     {{83, 142}, {524, 146}},
		"inside":         {{1, 142}, {1, 146}},
		"equal":          {{8, 142}, {412, 146}},
		"covers":         {{118, 142}, {524, 146}},
		"contains":       {{1, 142}, {1, 146}},
		"disjoint|equal": {{159789, 472}, {159744, 482}},
	}
	sets := map[string]topo.Set{"disjoint|equal": topo.NewSet(topo.Disjoint, topo.Equal)}
	for _, r := range topo.All() {
		sets[r.String()] = topo.NewSet(r)
	}
	rng := rand.New(rand.NewSource(19))
	left := joinSources(t, tieRects(rng, 400, 1))
	right := joinSources(t, tieRects(rng, 400, 1001))
	for name, rels := range sets {
		preds := setPreds(mbr.CandidatesSet(rels))
		_, sweep := preds.accept.Domination().Sweep()
		if sweep == rels.Has(topo.Disjoint) {
			t.Fatalf("%s: the masks say sweep %v", name, sweep)
		}
		for side, others := range []map[string]*Tree{right, left} {
			want, wantStats, onEdge := refJoin(t, left["arena"], others["arena"], preds.pruneProbe, preds.acceptProbe, true)
			if p := parent[name][side]; wantStats.Emitted != p.pairs || int(wantStats.NodeAccesses) != p.accesses {
				t.Errorf("%s, side %d: oracle has %d pairs over %d accesses, the parent commit had %d over %d",
					name, side, wantStats.Emitted, wantStats.NodeAccesses, p.pairs, p.accesses)
			}
			if sweep && onEdge == 0 {
				t.Errorf("%s, side %d: no leaf entry lies on a clip edge; the data do not tie where they should", name, side)
			}
			for kind := range left {
				for _, workers := range []int{1, 4} {
					label := name + "/" + kind
					opts := JoinOptions{Workers: workers}
					got, seq, stats := enginePairs(t, left[kind], others[kind], preds, opts, false)
					samePairs(t, want, got, label)
					if sansStrategy(stats) != wantStats {
						t.Fatalf("%s, workers %d: stats %+v, oracle %+v", label, workers, stats, wantStats)
					}
					if workers == 1 {
						// A serial join is deterministic: same versions, same order.
						if _, again, _ := enginePairs(t, left[kind], others[kind], preds, opts, false); !slices.Equal(seq, again) {
							t.Fatalf("%s: two serial joins emitted their pairs in different orders", label)
						}
					}
				}
			}
		}
	}
}

// sweptNodes is how many of the given node versions carry a sweep
// side-car, after checking each against its own entries: the tight MBR,
// and every index once, by low x, ties by index.
func sweptNodes(t *testing.T, label string, nodes map[*node]bool) int {
	t.Helper()
	swept := 0
	for n := range nodes {
		k := n.sweep.Load()
		if k == nil {
			continue
		}
		swept++
		if len(k.ord) != len(n.entries) {
			t.Fatalf("%s: a level-%d node keeps an order of %d for %d entries", label, n.level, len(k.ord), len(n.entries))
		}
		if len(n.entries) > 0 && k.mbr != unionOf(n.entries) {
			t.Fatalf("%s: a level-%d node keeps MBR %v, its entries span %v", label, n.level, k.mbr, unionOf(n.entries))
		}
		for i := 1; i < len(k.ord); i++ {
			a, b := k.ord[i-1], k.ord[i]
			ax, bx := n.entries[a].Rect.Min.X, n.entries[b].Rect.Min.X
			if ax > bx || ax == bx && a >= b {
				t.Fatalf("%s: a level-%d node keeps entry %d (low x %v) before entry %d (low x %v)", label, n.level, a, ax, b, bx)
			}
		}
	}
	return swept
}

// TestSweepOrderFollowsNodeVersions: copy-on-write is the side-car's
// whole invalidation story. Inserts, deletes and updates land in leaves
// a join has already swept; every version a mutation installs starts
// without a side-car, the versions it replaced — order and all — are
// unreachable from the tree, and the next join equals brute force
// over the live objects.
func TestSweepOrderFollowsNodeVersions(t *testing.T) {
	for name, opts := range map[string]Options{"R-tree": {}, "R*-tree": rstarOpts} {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(23))
			tree, err := NewArena(testPageSize, opts, name)
			if err != nil {
				t.Fatal(err)
			}
			other, err := newTestRStar()
			if err != nil {
				t.Fatal(err)
			}
			if err := other.InsertBatch(tieRects(rng, 300, 1001)); err != nil {
				t.Fatal(err)
			}
			var others []Record
			collectRecords(t, other, &others)
			live := map[uint64]geom.Rect{}
			var oids []uint64
			for _, r := range tieRects(rng, 300, 1) {
				live[r.OID] = r.Rect
				oids = append(oids, r.OID)
				if err := tree.Insert(r.Rect, r.OID); err != nil {
					t.Fatal(err)
				}
			}
			joinAndCheck := func(label string) {
				t.Helper()
				want := map[[2]uint64]int{}
				for oid, r := range live {
					for _, o := range others {
						if r.Intersects(o.Rect) {
							want[[2]uint64{oid, o.OID}]++
						}
					}
				}
				got, _, _ := enginePairs(t, tree, other, touchingPreds, JoinOptions{Workers: 1}, false)
				samePairs(t, want, got, label)
			}
			joinAndCheck("warm-up")
			for n := range liveNodes(t, tree) {
				if n.isLeaf() && n.sweep.Load() == nil {
					t.Fatal("a join over everything left a leaf unswept")
				}
			}
			nextOID, replaced := uint64(301), 0
			for step := 0; step < 60; step++ {
				before := liveNodes(t, tree)
				to := tieRects(rng, 1, 0)[0].Rect
				at := rng.Intn(len(oids))
				oid := oids[at]
				switch step % 3 {
				case 0:
					err = move(tree, live[oid], to, oid)
					live[oid] = to
				case 1:
					err = tree.Delete(live[oid], oid)
					delete(live, oid)
					oids = slices.Delete(oids, at, at+1)
				default:
					err = tree.Insert(to, nextOID)
					live[nextOID] = to
					oids = append(oids, nextOID)
					nextOID++
				}
				if err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				after := liveNodes(t, tree)
				installed := map[*node]bool{}
				for n := range after {
					if !before[n] {
						installed[n] = true
					}
				}
				if len(installed) == 0 {
					t.Fatalf("step %d installed no node version", step)
				}
				if n := sweptNodes(t, "installed", installed); n != 0 {
					t.Fatalf("step %d: %d of the versions the mutation installed came with a side-car", step, n)
				}
				for n := range before {
					if !after[n] && n.sweep.Load() != nil {
						replaced++
					}
				}
				joinAndCheck("after a mutation")
				if sweptNodes(t, "after a mutation", after) == 0 {
					t.Fatalf("step %d: the join swept nothing", step)
				}
			}
			if replaced == 0 {
				t.Fatal("no mutation ever replaced a node version that had been swept")
			}
			if err := tree.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func collectRecords(t *testing.T, tr *Tree, out *[]Record) {
	t.Helper()
	if err := tr.Search(everything, everything, func(r geom.Rect, oid uint64) bool {
		*out = append(*out, Record{Rect: r, OID: oid})
		return true
	}); err != nil {
		t.Fatal(err)
	}
}

// TestSweepRace runs, for the race detector, joins sweeping two trees
// adopted from one checkpoint image while a writer installs new versions
// in the second — the image's node versions are shared by both, so the
// same side-car is computed from either side. The first tree is never
// written: every join over it must find the same pairs.
func TestSweepRace(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	src, err := newTestRStar()
	if err != nil {
		t.Fatal(err)
	}
	recs := tieRects(rng, 800, 1)
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
	wantPairs, wantStats, _ := refJoin(t, src, src, intersectsPred, intersectsPred, true)
	var wg sync.WaitGroup
	adopted := make(chan *Tree)
	stop := make(chan struct{})
	joiner := func(label string, j *Tree, fixed bool) {
		defer wg.Done()
		for i := 0; ; i++ {
			if i >= 5 { // every joiner gets its share, however fast the writer is
				select {
				case <-stop:
					return
				default:
				}
			}
			n := 0
			ts, err := JoinCtx(context.Background(), j, j, touchingPreds.prune, touchingPreds.accept, func(a, b Hit) bool {
				if !a.Rect.Intersects(b.Rect) {
					t.Errorf("%s: emitted disjoint %v and %v", label, a.Rect, b.Rect)
					return false
				}
				n++
				return true
			}, JoinOptions{Workers: 1 + i%2})
			if err != nil {
				t.Errorf("%s: %v", label, err)
				return
			}
			if fixed && (n != wantStats.Emitted || ts.NodeAccesses != wantStats.NodeAccesses) {
				t.Errorf("%s: %d pairs over %d accesses, want %d over %d", label, n, ts.NodeAccesses, wantStats.Emitted, wantStats.NodeAccesses)
				return
			}
		}
	}
	wg.Add(2)
	go joiner("unwritten tree join 1", unwritten, true)
	go joiner("unwritten tree join 2", unwritten, true)
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
		wrng := rand.New(rand.NewSource(31))
		for i := 0; i < 400; i++ {
			r := recs[wrng.Intn(len(recs))]
			to := tieRects(wrng, 1, 0)[0].Rect
			if err := move(tree, r.Rect, to, r.OID); err == nil {
				recs[r.OID-1].Rect = to
			}
		}
		close(stop)
	}()
	if tree, ok := <-adopted; ok {
		wg.Add(2)
		go joiner("written tree join 1", tree, false)
		go joiner("written tree join 2", tree, false)
	} else {
		close(stop)
	}
	wg.Wait()
	if sweptNodes(t, "image", imageNodes(flat)) != len(flat.nodes) {
		t.Fatal("the joins left image nodes unswept")
	}
	if len(wantPairs) == 0 {
		t.Fatal("the self-join found no pairs")
	}
}

// TestJoinAllocsIndependentOfNodePairs: one warm serial join allocates
// its engine and a few scratch buffers per level — the same for ten
// times the objects and more than ten times the node pairs. (The trees are equally tall; the sweep
// order comes from the side-cars, the child tables and the filtered
// orders from the worker's per-depth scratch.)
func TestJoinAllocsIndependentOfNodePairs(t *testing.T) {
	var allocs [2]float64
	var nodePairs [2]uint64
	for i, n := range []int{2000, 20000} {
		rng := rand.New(rand.NewSource(37))
		var trees [2]*Tree
		for k := range trees {
			recs := make([]Record, n)
			for j := range recs {
				recs[j] = Record{Rect: randRect(rng, 1000, 10), OID: uint64(j + 1)}
			}
			tr, err := newTestRStar()
			if err != nil {
				t.Fatal(err)
			}
			if err := tr.InsertBatch(recs); err != nil {
				t.Fatal(err)
			}
			trees[k] = tr
		}
		if trees[0].Height() != 4 || trees[1].Height() != 4 {
			t.Fatalf("heights %d and %d at %d objects: the comparison wants equally tall trees", trees[0].Height(), trees[1].Height(), n)
		}
		run := func() {
			ts, err := JoinCtx(context.Background(), trees[0], trees[1], touchingPreds.prune, touchingPreds.accept,
				func(Hit, Hit) bool { return true }, JoinOptions{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			nodePairs[i] = ts.SweepPairs + ts.NestedPairs
		}
		run() // warm: every node version met gets its side-car
		allocs[i] = testing.AllocsPerRun(5, run)
	}
	t.Logf("%v allocations for %d node pairs, %v for %d", allocs[0], nodePairs[0], allocs[1], nodePairs[1])
	if nodePairs[1] < 10*nodePairs[0] {
		t.Fatalf("%d and %d node pairs: want the larger join to match at least ten times as many", nodePairs[0], nodePairs[1])
	}
	// Equal but for a scratch buffer meeting a fuller node later in the
	// larger join; the allowance is TestStreamAllocsIndependentOfMatches's.
	if allocs[1] > allocs[0]+6 || allocs[0] > 40 {
		t.Fatalf("%v allocations for %d node pairs, %v for %d: want the same small constant", allocs[0], nodePairs[0], allocs[1], nodePairs[1])
	}
}

// FuzzJoinOrder: for a fuzz-chosen configuration set — any subset of the
// 169, not only the ones Table 1 produces — over grid-snapped data, the
// engine steered by the set's sign masks emits the nested-loop oracle's
// pair multiset and reads its pages, joined with another tree and with
// itself. A set that admits axis-disjoint pairs runs the nested matcher,
// so its point-sharing part is checked too: that is the set the sweep
// takes, with whatever low-x orders and corner windows its masks allow.
func FuzzJoinOrder(f *testing.F) {
	words := func(cs mbr.ConfigSet) (w [3]uint64) {
		for _, c := range cs.Configs() {
			w[c.Index()/64] |= 1 << (c.Index() % 64)
		}
		return w
	}
	for i, r := range topo.All() {
		w := words(mbr.CandidatesSet(topo.NewSet(r)))
		f.Add(w[0], w[1], w[2], int64(i))
	}
	w := words(mbr.CandidatesNonContiguousSet(topo.NewSet(topo.Inside, topo.CoveredBy)))
	f.Add(w[0], w[1], w[2], int64(41))
	f.Add(^uint64(0), ^uint64(0), ^uint64(0), int64(43))
	f.Fuzz(func(t *testing.T, w0, w1, w2 uint64, seed int64) {
		var set mbr.ConfigSet
		for i, w := range [3]uint64{w0, w1, w2} {
			for b := 0; b < 64 && i*64+b < mbr.NumConfigs; b++ {
				if w&(1<<b) != 0 {
					set.Add(mbr.ConfigFromIndex(i*64 + b))
				}
			}
		}
		rng := rand.New(rand.NewSource(seed))
		var trees [2]*Tree
		for i := range trees {
			tr, err := newTestRStar()
			if err != nil {
				t.Fatal(err)
			}
			if err := tr.InsertBatch(tieRects(rng, 150, uint64(1+1000*i))); err != nil {
				t.Fatal(err)
			}
			trees[i] = tr
		}
		for _, s := range []mbr.ConfigSet{set, set.Intersect(mbr.Touching())} {
			preds := setPreds(s)
			for _, other := range trees {
				want, wantStats, _ := refJoin(t, trees[0], other, preds.pruneProbe, preds.acceptProbe, true)
				got, _, stats := enginePairs(t, trees[0], other, preds, JoinOptions{Workers: 1}, false)
				samePairs(t, want, got, s.String())
				if sansStrategy(stats) != wantStats {
					t.Fatalf("%v: stats %+v, oracle %+v", s, stats, wantStats)
				}
			}
		}
	})
}
