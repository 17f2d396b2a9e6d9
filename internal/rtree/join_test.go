package rtree

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"mbrtopo/internal/geom"
)

func buildJoinTree(t *testing.T, seed int64, n int) *Tree {
	t.Helper()
	tr, err := newTestRStar()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		if err := tr.Insert(randRect(rng, 1000, 30), uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	return tr
}

func intersectsPred(a, b geom.Rect) bool { return a.Intersects(b) }

// runJoin collects an intersection join's pair multiset; nested forces
// the nested matcher.
func runJoin(t *testing.T, t1, t2 *Tree, opts JoinOptions, nested bool) (map[[2]uint64]int, TraversalStats) {
	t.Helper()
	pairs, _, ts := enginePairs(t, t1, t2, touchingPreds, opts, nested)
	return pairs, ts
}

func samePairs(t *testing.T, want, got map[[2]uint64]int, label string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d distinct pairs, want %d", label, len(got), len(want))
	}
	for k, n := range want {
		if got[k] != n {
			t.Fatalf("%s: pair %v emitted %d times, want %d", label, k, got[k], n)
		}
	}
}

func unionOf(entries []Entry) geom.Rect {
	r := entries[0].Rect
	for _, e := range entries[1:] {
		r = r.Union(e.Rect)
	}
	return r
}

// clipRect is the closed intersection of two rectangles: degenerate
// (zero extent) when they only share an edge or corner, inverted
// (Min > Max on an axis) when they are disjoint.
func clipRect(a, b geom.Rect) geom.Rect {
	return geom.Rect{
		Min: geom.Point{X: max(a.Min.X, b.Min.X), Y: max(a.Min.Y, b.Min.Y)},
		Max: geom.Point{X: min(a.Max.X, b.Max.X), Y: min(a.Max.Y, b.Max.Y)},
	}
}

// refJoin is the textbook nested-loop join over any two trees,
// written independently of the engine: the differential oracle for its
// pair multiset and its page reads. Every combination is tested and node
// MBRs are united by hand. With dedup every child page is read at most
// once per node pair, which is what the engine must do; without, the
// right child is re-read for every matching left entry — the pre-sweep
// joiner, whose page count bounds the engine's from above. onEdge counts
// the leaf entries that reach their node pair's clip region in x by an
// edge alone.
func refJoin(t *testing.T, j1, j2 *Tree, prune, accept func(a, b geom.Rect) bool, dedup bool) (pairs map[[2]uint64]int, ts TraversalStats, onEdge int) {
	t.Helper()
	src1, root1 := j1.st, j1.cur.Load().root
	src2, root2 := j2.st, j2.cur.Load().root
	pairs = map[[2]uint64]int{}
	read := func(src *arena, n *node) *node {
		src.get(n)
		ts.NodesVisited++
		ts.NodeAccesses += uint64(n.cost)
		return n
	}
	var rec func(n1, n2 *node)
	rec = func(n1, n2 *node) {
		switch {
		case n1.isLeaf() && n2.isLeaf():
			clip := clipRect(unionOf(n1.entries), unionOf(n2.entries))
			for _, n := range []*node{n1, n2} {
				for _, e := range n.entries {
					if e.Rect.Min.X == clip.Max.X || e.Rect.Max.X == clip.Min.X {
						onEdge++
					}
				}
			}
			for _, e1 := range n1.entries {
				for _, e2 := range n2.entries {
					if accept(e1.Rect, e2.Rect) {
						pairs[[2]uint64{e1.OID, e2.OID}]++
						ts.Emitted++
					}
				}
			}
		case n1.isLeaf():
			m1 := unionOf(n1.entries)
			for j := range n2.entries {
				if prune(m1, n2.entries[j].Rect) {
					rec(n1, read(src2, n2.entries[j].Child))
				}
			}
		case n2.isLeaf():
			m2 := unionOf(n2.entries)
			for i := range n1.entries {
				if prune(n1.entries[i].Rect, m2) {
					rec(read(src1, n1.entries[i].Child), n2)
				}
			}
		default:
			left := make([]*node, len(n1.entries))
			right := make([]*node, len(n2.entries))
			for i := range n1.entries {
				for j := range n2.entries {
					if !prune(n1.entries[i].Rect, n2.entries[j].Rect) {
						continue
					}
					if left[i] == nil {
						left[i] = read(src1, n1.entries[i].Child)
					}
					if right[j] == nil || !dedup {
						right[j] = read(src2, n2.entries[j].Child)
					}
					rec(left[i], right[j])
				}
			}
		}
	}
	r1, r2 := read(src1, root1), read(src2, root2)
	if len(r1.entries) > 0 && len(r2.entries) > 0 && prune(unionOf(r1.entries), unionOf(r2.entries)) {
		rec(r1, r2)
	}
	return pairs, ts, onEdge
}

// TestJoinChildReadDedup is the page-access regression test for the
// node-node fix: the engine must emit the nested loop's pair multiset,
// read each child at most once per node pair (matching the reference
// walk exactly) and strictly fewer pages than the nested loop that
// re-reads the right child for every matching left entry — all visible
// in TraversalStats.
func TestJoinChildReadDedup(t *testing.T) {
	t1 := buildJoinTree(t, 1, 1500)
	t2 := buildJoinTree(t, 2, 1500)
	if t1.Height() < 3 {
		t.Fatalf("want height >= 3 to exercise node-node descent, got %d", t1.Height())
	}

	naivePairs, naive, _ := refJoin(t, t1, t2, intersectsPred, intersectsPred, false)
	naiveReads := naive.NodeAccesses
	dedupPairs, dedup := runJoin(t, t1, t2, JoinOptions{Workers: 1}, true)
	samePairs(t, naivePairs, dedupPairs, "engine vs nested loop")

	if dedup.NodeAccesses >= naiveReads {
		t.Fatalf("engine read %d pages, nested loop %d; want strictly fewer", dedup.NodeAccesses, naiveReads)
	}
	if _, want, _ := refJoin(t, t1, t2, intersectsPred, intersectsPred, true); dedup.NodeAccesses != want.NodeAccesses {
		t.Fatalf("engine read %d pages, reference dedup walk reads %d", dedup.NodeAccesses, want.NodeAccesses)
	}
	if dedup.Emitted != len(dedupPairs) {
		t.Fatalf("emitted %d, distinct %d; counts must agree", dedup.Emitted, len(dedupPairs))
	}
}

// TestJoinSweepEquivalence: for a point-sharing predicate the sweep
// matcher must test exactly the pairs the nested loop accepts, so the
// result multiset and the page reads are identical.
func TestJoinSweepEquivalence(t *testing.T) {
	t1 := buildJoinTree(t, 3, 1200)
	t2 := buildJoinTree(t, 4, 1200)
	nestedPairs, nested := runJoin(t, t1, t2, JoinOptions{Workers: 1}, true)
	sweepPairs, sweep := runJoin(t, t1, t2, JoinOptions{Workers: 1}, false)
	samePairs(t, nestedPairs, sweepPairs, "sweep vs nested")
	// The strategy decision log and the pairs tested necessarily differ
	// between the two engines; everything else must agree exactly.
	if sweep.PairTests >= nested.PairTests {
		t.Fatalf("the sweep tested %d pairs, the nested loop %d; want strictly fewer", sweep.PairTests, nested.PairTests)
	}
	sweep, nested = sansStrategy(sweep), sansStrategy(nested)
	if sweep != nested {
		t.Fatalf("sweep stats %+v != nested stats %+v", sweep, nested)
	}
}

// TestJoinParallelEquivalence: the worker pool must emit the same pair
// multiset with the same merged statistics as the serial engine (the
// task expansion charges reads identically).
func TestJoinParallelEquivalence(t *testing.T) {
	t1 := buildJoinTree(t, 5, 1500)
	t2 := buildJoinTree(t, 6, 1500)
	serialPairs, serial := runJoin(t, t1, t2, JoinOptions{Workers: 1}, false)
	for _, workers := range []int{2, 4, 8} {
		pairs, stats := runJoin(t, t1, t2, JoinOptions{Workers: workers}, false)
		samePairs(t, serialPairs, pairs, "parallel vs serial")
		if stats != serial {
			t.Fatalf("workers=%d stats %+v != serial stats %+v", workers, stats, serial)
		}
	}

	// Self-join through the same pool: a consistent single snapshot.
	selfSerial, ss := runJoin(t, t1, t1, JoinOptions{Workers: 1}, false)
	selfPar, sp := runJoin(t, t1, t1, JoinOptions{Workers: 4}, false)
	samePairs(t, selfSerial, selfPar, "parallel self-join")
	if ss != sp {
		t.Fatalf("self-join stats diverge: serial %+v parallel %+v", ss, sp)
	}
	for i := 0; i < t1.Len(); i += 97 {
		if selfSerial[[2]uint64{uint64(i), uint64(i)}] != 1 {
			t.Fatalf("self-join missing identity pair (%d,%d)", i, i)
		}
	}
}

// TestJoinEmitStop: emit returning false stops the join cleanly — nil
// error, and Emitted equal to the number of emit calls, also under the
// worker pool where the stop gate is shared.
func TestJoinEmitStop(t *testing.T) {
	t1 := buildJoinTree(t, 7, 1000)
	t2 := buildJoinTree(t, 8, 1000)
	for _, workers := range []int{1, 4} {
		emits := 0
		ts, err := JoinCtx(context.Background(), t1, t2, touchingPreds.prune, touchingPreds.accept,
			func(Hit, Hit) bool {
				emits++
				return emits < 5
			}, JoinOptions{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: stopped join returned error %v", workers, err)
		}
		if emits != 5 || ts.Emitted != 5 {
			t.Fatalf("workers=%d: emit called %d times, stats say %d, want exactly 5",
				workers, emits, ts.Emitted)
		}
	}
}

// TestJoinCancel: external cancellation aborts the traversal within a
// page read, returns ctx.Err(), and leaves exact partial statistics.
func TestJoinCancel(t *testing.T) {
	t1 := buildJoinTree(t, 9, 1500)
	t2 := buildJoinTree(t, 10, 1500)
	_, full := runJoin(t, t1, t2, JoinOptions{Workers: 1}, false)
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		emits := 0
		ts, err := JoinCtx(ctx, t1, t2, touchingPreds.prune, touchingPreds.accept,
			func(Hit, Hit) bool {
				emits++
				if emits == 10 {
					cancel()
				}
				return true
			}, JoinOptions{Workers: workers})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: cancelled join returned %v, want context.Canceled", workers, err)
		}
		if ts.NodeAccesses == 0 || ts.NodeAccesses >= full.NodeAccesses {
			t.Fatalf("workers=%d: cancelled join read %d pages (full run reads %d); want a strict partial read",
				workers, ts.NodeAccesses, full.NodeAccesses)
		}
	}
}
