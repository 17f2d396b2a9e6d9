package rtree

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"mbrtopo/internal/geom"
	"mbrtopo/internal/mbr"
	"mbrtopo/internal/pagefile"
)

// ctxSearcher is the context-aware search face shared by the variants.
type ctxSearcher interface {
	searcher
	SearchCtx(ctx context.Context, nodePred, leafPred func(geom.Rect) bool, emit func(geom.Rect, uint64) bool) (TraversalStats, error)
	IOStats() pagefile.Stats
	ResetIOStats()
}

func loadedCtxTrees(t *testing.T, n int) map[string]ctxSearcher {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	data := make([]geom.Rect, n)
	for i := range data {
		data[i] = randRect(rng, 100, 5)
	}
	out := map[string]ctxSearcher{}
	for name, s := range makeTrees(t) {
		cs, ok := s.(ctxSearcher)
		if !ok {
			t.Fatalf("%s does not implement SearchCtx", name)
		}
		for i, r := range data {
			if err := cs.Insert(r, uint64(i)); err != nil {
				t.Fatalf("%s: insert: %v", name, err)
			}
		}
		out[name] = cs
	}
	return out
}

// TestSearchCtxStatsMatchGlobalCounters pins the per-traversal
// accounting to the tree's global page counters when a single search
// runs alone: NodeAccesses must equal exactly the pages the search
// read.
func TestSearchCtxStatsMatchGlobalCounters(t *testing.T) {
	for name, s := range loadedCtxTrees(t, 400) {
		for _, w := range []geom.Rect{
			geom.R(0, 0, 100, 100),
			geom.R(10, 10, 30, 30),
			geom.R(95, 95, 96, 96),
		} {
			pred := func(r geom.Rect) bool { return r.Intersects(w) }
			s.ResetIOStats()
			ts, err := s.SearchCtx(context.Background(), pred, pred, func(geom.Rect, uint64) bool { return true })
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if got := s.IOStats().Reads; ts.NodeAccesses != got {
				t.Errorf("%s window %v: traversal counted %d accesses, the tree's counters %d",
					name, w, ts.NodeAccesses, got)
			}
			if ts.NodesVisited == 0 || ts.NodesVisited > ts.NodeAccesses {
				t.Errorf("%s window %v: implausible NodesVisited %d (accesses %d)",
					name, w, ts.NodesVisited, ts.NodeAccesses)
			}
		}
	}
}

// TestSearchCtxCancellation cancels the context from inside emit and
// requires the traversal to stop promptly with context.Canceled,
// having visited only part of the tree.
func TestSearchCtxCancellation(t *testing.T) {
	for name, s := range loadedCtxTrees(t, 400) {
		all := func(geom.Rect) bool { return true }

		// Total work of the uncancelled traversal, for comparison.
		full, err := s.SearchCtx(context.Background(), all, all, func(geom.Rect, uint64) bool { return true })
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}

		ctx, cancel := context.WithCancel(context.Background())
		emitted := 0
		ts, err := s.SearchCtx(ctx, all, all, func(geom.Rect, uint64) bool {
			emitted++
			if emitted == 1 {
				cancel()
			}
			return true
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: want context.Canceled, got %v", name, err)
		}
		if ts.NodesVisited >= full.NodesVisited {
			t.Errorf("%s: cancellation did not stop the traversal early (%d of %d nodes)",
				name, ts.NodesVisited, full.NodesVisited)
		}
		// The leaf that triggered the cancellation finishes, but no
		// further node may be expanded afterwards; the emitted count
		// stays bounded by one leaf's entries.
		if ts.Emitted > emitted {
			t.Errorf("%s: stats claim %d emissions, emit saw %d", name, ts.Emitted, emitted)
		}
		cancel()
	}
}

// TestNearestCtxCancellation checks the branch-and-bound kNN search
// honours an already-cancelled context.
func TestNearestCtxCancellation(t *testing.T) {
	for name, s := range loadedCtxTrees(t, 400) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		var err error
		switch v := s.(type) {
		case *Tree:
			_, _, err = v.NearestCtx(ctx, geom.Point{X: 50, Y: 50}, 5)
		case *RPlusTree:
			_, _, err = v.NearestCtx(ctx, geom.Point{X: 50, Y: 50}, 5)
		default:
			t.Fatalf("%s: unknown variant", name)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: want context.Canceled, got %v", name, err)
		}
	}
}

// TestTraverseLimit: the shared core stops at the leaf its emit
// declines, which is how every consumer bounds an answer, and hands
// each leaf's passing entries over once, in entry order.
func TestTraverseLimit(t *testing.T) {
	for name, s := range loadedCtxTrees(t, 200) {
		st, root := arenaOf(t, s)
		all := mbr.Func(func(geom.Rect) bool { return true })
		for _, limit := range []int{1, 3, 7} {
			leaves, entries := 0, 0
			seen := map[*node]bool{}
			ts, err := traverse(context.Background(), st, root, all, all, func(l Leaf) bool {
				leaves++
				entries += l.Len()
				if seen[l.n] || !l.n.isLeaf() || l.Len() == 0 {
					t.Errorf("%s: a batch of %d from a node met before (%v) or no leaf", name, l.Len(), seen[l.n])
				}
				seen[l.n] = true
				for i := 1; i < l.Len(); i++ {
					if l.at[i] <= l.at[i-1] {
						t.Errorf("%s: a batch out of entry order: %v", name, l.at)
					}
				}
				return leaves < limit
			})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if leaves != limit || ts.Emitted != entries {
				t.Errorf("%s: limit %d delivered %d leaves (stats %d entries, emit saw %d)", name, limit, leaves, ts.Emitted, entries)
			}
		}
	}
}

// TestSearchEmitStop pins the pre-existing contract that emit
// returning false stops the search without error.
func TestSearchEmitStop(t *testing.T) {
	for name, s := range loadedCtxTrees(t, 200) {
		all := func(geom.Rect) bool { return true }
		got := 0
		ts, err := s.SearchCtx(context.Background(), all, all, func(geom.Rect, uint64) bool {
			got++
			return got < 3
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got != 3 || ts.Emitted != 3 {
			t.Errorf("%s: emit-false stopped after %d (stats %d), want 3", name, got, ts.Emitted)
		}
	}
}
