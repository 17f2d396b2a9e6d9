package shard

import (
	"context"
	"errors"
	"testing"

	"mbrtopo/internal/geom"
	"mbrtopo/internal/index"
	"mbrtopo/internal/query"
	"mbrtopo/internal/rtree"
	"mbrtopo/internal/topo"
	"mbrtopo/internal/workload"
)

func TestSTRPartitionInvariants(t *testing.T) {
	ds := workload.NewDataset(workload.Small, 1000, 0, 5)
	recs := make([]rtree.Record, len(ds.Items))
	for i, it := range ds.Items {
		recs[i] = rtree.Record{Rect: it.Rect, OID: it.OID}
	}
	for _, n := range []int{1, 2, 4, 7, 16, 1000, 2000} {
		parts := rtree.STRPartition(recs, n)
		if len(parts) != n {
			t.Fatalf("n=%d: got %d groups", n, len(parts))
		}
		seen := map[uint64]bool{}
		total := 0
		for _, p := range parts {
			total += len(p)
			for _, r := range p {
				if seen[r.OID] {
					t.Fatalf("n=%d: oid %d in two groups", n, r.OID)
				}
				seen[r.OID] = true
			}
		}
		if total != len(recs) {
			t.Fatalf("n=%d: %d records partitioned, want %d", n, total, len(recs))
		}
		// Balance: no group exceeds the ceiling share.
		ceil := (len(recs) + n - 1) / n
		for i, p := range parts {
			if len(p) > ceil {
				t.Fatalf("n=%d: group %d has %d records, ceiling %d", n, i, len(p), ceil)
			}
		}
	}
	if got := rtree.STRPartition(nil, 4); len(got) != 4 {
		t.Fatalf("empty input: got %d groups, want 4", len(got))
	}
}

// TestRPlusBoundsKept: the router asks every tile for its bounds on
// every request, so a tile's Bounds must read nothing — on four R+
// tiles the pages one SearchTiles reads are exactly the node accesses
// its traversals report.
func TestRPlusBoundsKept(t *testing.T) {
	ds := workload.NewDataset(workload.Small, 2000, 0, 24)
	s := buildSharded(t, index.KindRPlus, ds.Items, 4)
	window := geom.R(300, 300, 420, 420)
	touches := func(r geom.Rect) bool { return r.Intersects(window) }
	reads := s.IOStats().Reads
	_, merged, err := s.SearchTiles(context.Background(), touches, touches, func(rtree.Hit) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	if got := s.IOStats().Reads - reads; merged.NodeAccesses == 0 || got != merged.NodeAccesses {
		t.Fatalf("SearchTiles read %d pages for %d node accesses", got, merged.NodeAccesses)
	}
}

func TestRoutedMutations(t *testing.T) {
	ds := workload.NewDataset(workload.Small, 400, 0, 9)
	s := buildSharded(t, index.KindRTree, ds.Items, 4)

	// Insert lands in exactly one tile.
	r := geom.R(100, 100, 110, 110)
	before := make([]int, 4)
	for i, tl := range s.Tiles() {
		before[i] = tl.Len()
	}
	if err := s.Insert(r, 9001); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	grew := 0
	for i, tl := range s.Tiles() {
		if tl.Len() != before[i] {
			grew++
		}
	}
	if grew != 1 {
		t.Fatalf("insert grew %d tiles, want exactly 1", grew)
	}

	// A delete then an insert may cross tiles; the object must stay
	// unique.
	r2 := geom.R(900, 900, 910, 910)
	if err := s.Delete(r, 9001); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if err := s.Insert(r2, 9001); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	found := 0
	for _, tl := range s.Tiles() {
		tl.Search(func(geom.Rect) bool { return true }, func(x geom.Rect) bool { return x == r2 },
			func(_ geom.Rect, oid uint64) bool {
				if oid == 9001 {
					found++
				}
				return true
			})
	}
	if found != 1 {
		t.Fatalf("after update found %d copies of the object, want 1", found)
	}
	if err := s.Delete(r2, 9001); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if err := s.Delete(r2, 9001); !errors.Is(err, rtree.ErrNotFound) {
		t.Fatalf("second Delete: got %v, want ErrNotFound", err)
	}
}

func TestAggregates(t *testing.T) {
	ds := workload.NewDataset(workload.Small, 600, 0, 13)
	s := buildSharded(t, index.KindRTree, ds.Items, 4)
	oracle := buildSingle(t, index.KindRTree, ds.Items)

	if s.Len() != oracle.Len() {
		t.Fatalf("Len: %d vs %d", s.Len(), oracle.Len())
	}
	sb, ok := s.Bounds()
	if !ok {
		t.Fatal("sharded Bounds: no bounds")
	}
	ob, _ := oracle.Bounds()
	if sb != ob {
		t.Fatalf("Bounds: %v vs %v", sb, ob)
	}
	if s.Height() < 1 {
		t.Fatalf("Height: %d", s.Height())
	}
	if !s.CoveringNodeRects() {
		t.Fatal("R-tree tiles must report covering node rects")
	}
	if len(s.Tiles()) != 4 {
		t.Fatalf("%d tiles, want 4", len(s.Tiles()))
	}
	s.ResetIOStats()
	if _, _, err := s.NearestCtx(context.Background(), geom.Point{X: 500, Y: 500}, 3); err != nil {
		t.Fatalf("Nearest: %v", err)
	}
	if io := s.IOStats(); io.Reads == 0 {
		t.Fatal("IOStats: no reads counted after a kNN")
	}
}

func TestRouterStatsPruning(t *testing.T) {
	// Two far-apart clusters in separate tiles: a window query over one
	// cluster must prune the other tile.
	var items []index.Item
	oid := uint64(1)
	for i := 0; i < 50; i++ {
		x := float64(i % 10)
		items = append(items, index.Item{Rect: geom.R(x, x, x+1, x+1), OID: oid})
		oid++
	}
	for i := 0; i < 50; i++ {
		x := 900 + float64(i%10)
		items = append(items, index.Item{Rect: geom.R(x, x, x+1, x+1), OID: oid})
		oid++
	}
	s := buildSharded(t, index.KindRTree, items, 2)
	proc := &query.Processor{Idx: s}
	rels := topo.FullSet().Minus(topo.NewSet(topo.Disjoint))
	n := 0
	if _, err := proc.Stream(context.Background(), rels, geom.R(0, 0, 20, 20), 0, func(query.Match) bool {
		n++
		return true
	}); err != nil {
		t.Fatalf("Stream: %v", err)
	}
	if n == 0 {
		t.Fatal("window query found nothing")
	}
	st := s.RouterStats()
	if st.Tiles != 2 {
		t.Fatalf("Tiles = %d", st.Tiles)
	}
	if st.Pruned == 0 {
		t.Fatalf("expected the far tile to be pruned: %+v", st)
	}
	if st.Searched == 0 {
		t.Fatalf("expected the near tile to be searched: %+v", st)
	}
}

func TestCanJoinRejectsPartitionTiles(t *testing.T) {
	ds := workload.NewDataset(workload.Small, 100, 0, 17)
	sPlus := buildSharded(t, index.KindRPlus, ds.Items, 2)
	sTree := buildSharded(t, index.KindRTree, ds.Items, 2)
	if err := query.CanJoin(sPlus, sTree); err == nil {
		t.Fatal("CanJoin accepted R+ tiles on the left")
	}
	if err := query.CanJoin(sTree, sPlus); err == nil {
		t.Fatal("CanJoin accepted R+ tiles on the right")
	}
	if err := query.CanJoin(sTree, sTree); err != nil {
		t.Fatalf("CanJoin rejected joinable sharded trees: %v", err)
	}
}

// TestSearchLimitStopsEarly drives the emit-false path: the router
// must stop cleanly (nil error) once the consumer has enough.
func TestSearchLimitStopsEarly(t *testing.T) {
	ds := workload.NewDataset(workload.Small, 500, 0, 23)
	s := buildSharded(t, index.KindRTree, ds.Items, 4)
	proc := &query.Processor{Idx: s}
	rels := topo.FullSet().Minus(topo.NewSet(topo.Disjoint))
	n := 0
	_, err := proc.Stream(context.Background(), rels, geom.R(0, 0, 1000, 1000), 7, func(query.Match) bool {
		n++
		return true
	})
	if err != nil {
		t.Fatalf("Stream with limit: %v", err)
	}
	if n != 7 {
		t.Fatalf("limit 7 delivered %d matches", n)
	}
}
