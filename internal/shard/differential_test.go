package shard

import (
	"context"
	"fmt"
	"sort"
	"testing"

	"mbrtopo/internal/geom"
	"mbrtopo/internal/index"
	"mbrtopo/internal/query"
	"mbrtopo/internal/rtree"
	"mbrtopo/internal/topo"
	"mbrtopo/internal/workload"
)

// The differential harness: for every tree kind, workload shape and
// shard count, a sharded index must answer query, kNN and join
// requests identically (as sorted object-id sets; bit-identical
// neighbour lists for kNN) to a single index holding the same data.
// Objects straddling tile borders are added on purpose — they are the
// pairs a naive per-tile merge loses.

var shardCounts = []int{1, 2, 4, 7}

func buildSingle(t testing.TB, kind index.Kind, items []index.Item) index.Index {
	t.Helper()
	idx, err := index.New(kind)
	if err != nil {
		t.Fatalf("New(%v): %v", kind, err)
	}
	if err := index.LoadBulk(idx, items); err != nil {
		t.Fatalf("LoadBulk: %v", err)
	}
	return idx
}

func buildSharded(t testing.TB, kind index.Kind, items []index.Item, shards int) *Sharded {
	t.Helper()
	tiles := make([]index.Index, shards)
	for i := range tiles {
		var err error
		if tiles[i], err = index.New(kind); err != nil {
			t.Fatalf("New(%v): %v", kind, err)
		}
	}
	s := New(tiles...)
	recs := make([]rtree.Record, len(items))
	for i, it := range items {
		recs[i] = rtree.Record{Rect: it.Rect, OID: it.OID}
	}
	if err := s.InsertBatch(recs); err != nil {
		t.Fatalf("sharded InsertBatch: %v", err)
	}
	return s
}

// borderItems builds rectangles that straddle the borders between the
// sharded index's tiles: for every tile bound edge, one rectangle
// centred on the edge. They are inserted one by one (the routed write
// path) into the sharded index and its oracle alike.
func borderItems(s *Sharded, nextOID uint64) []index.Item {
	var out []index.Item
	for _, tl := range s.Tiles() {
		b, ok := tl.Bounds()
		if !ok {
			continue
		}
		c := b.Center()
		for _, r := range []geom.Rect{
			geom.R(b.Max.X-1, c.Y-1, b.Max.X+1, c.Y+1), // right edge
			geom.R(b.Min.X-1, c.Y-1, b.Min.X+1, c.Y+1), // left edge
			geom.R(c.X-1, b.Max.Y-1, c.X+1, b.Max.Y+1), // top edge
			geom.R(c.X-1, b.Min.Y-1, c.X+1, b.Min.Y+1), // bottom edge
		} {
			out = append(out, index.Item{Rect: r, OID: nextOID})
			nextOID++
		}
	}
	return out
}

// queryOIDs streams one filter query and returns the sorted object
// ids. On the way it checks that the materialising QuerySetMBR is the
// same descent: same objects, same pages read, same candidate count.
func queryOIDs(t testing.TB, idx index.Index, rels topo.Set, ref geom.Rect) []uint64 {
	t.Helper()
	proc := &query.Processor{Idx: idx}
	var oids []uint64
	stats, err := proc.Stream(context.Background(), rels, ref, 0, func(m query.Match) bool {
		oids = append(oids, m.OID)
		return true
	})
	if err != nil {
		t.Fatalf("Stream(%v): %v", rels, err)
	}
	sort.Slice(oids, func(i, j int) bool { return oids[i] < oids[j] })
	batch, err := proc.QuerySetMBR(rels, ref)
	if err != nil {
		t.Fatalf("QuerySetMBR(%v): %v", rels, err)
	}
	batchOIDs := make([]uint64, len(batch.Matches))
	for i, m := range batch.Matches {
		batchOIDs[i] = m.OID
	}
	if !oidsEqual(oids, batchOIDs) {
		t.Fatalf("%s %v on %v: Stream %v, QuerySetMBR %v", idx.Name(), rels, ref, oids, batchOIDs)
	}
	if stats.NodeAccesses != batch.Stats.NodeAccesses || stats.Candidates != batch.Stats.Candidates {
		t.Fatalf("%s %v on %v: Stream stats %+v, QuerySetMBR stats %+v", idx.Name(), rels, ref, stats, batch.Stats)
	}
	return oids
}

func oidsEqual(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func workloads(nData, nQueries int) map[string]*workload.Dataset {
	return map[string]*workload.Dataset{
		"uniform":   workload.NewDataset(workload.Small, nData, nQueries, 42),
		"clustered": workload.ClusteredDataset(workload.Small, nData, nQueries, 5, 43),
	}
}

func TestShardedQueryDifferential(t *testing.T) {
	for wname, ds := range workloads(800, 8) {
		for _, kind := range index.AllKinds() {
			for _, shards := range shardCounts {
				t.Run(fmt.Sprintf("%s/%v/shards=%d", wname, kind, shards), func(t *testing.T) {
					oracle := buildSingle(t, kind, ds.Items)
					s := buildSharded(t, kind, ds.Items, shards)
					border := borderItems(s, uint64(len(ds.Items)+1))
					for _, it := range border {
						if err := s.Insert(it.Rect, it.OID); err != nil {
							t.Fatalf("sharded Insert: %v", err)
						}
						if err := oracle.Insert(it.Rect, it.OID); err != nil {
							t.Fatalf("oracle Insert: %v", err)
						}
					}
					if got, want := s.Len(), oracle.Len(); got != want {
						t.Fatalf("Len: sharded %d, oracle %d", got, want)
					}
					for _, rel := range topo.All() {
						rels := topo.NewSet(rel)
						for _, ref := range ds.Queries {
							want := queryOIDs(t, oracle, rels, ref)
							got := queryOIDs(t, s, rels, ref)
							if !oidsEqual(got, want) {
								t.Fatalf("%v on %v: sharded %d oids, oracle %d oids\n got %v\nwant %v",
									rel, ref, len(got), len(want), got, want)
							}
						}
					}
					// Remove the border objects through the routed delete
					// path and re-check one relation, so deletes that cross
					// tile bounds are covered too.
					for _, it := range border {
						if err := s.Delete(it.Rect, it.OID); err != nil {
							t.Fatalf("sharded Delete(%v, %d): %v", it.Rect, it.OID, err)
						}
						if err := oracle.Delete(it.Rect, it.OID); err != nil {
							t.Fatalf("oracle Delete: %v", err)
						}
					}
					rels := topo.NewSet(topo.Overlap)
					for _, ref := range ds.Queries[:2] {
						if got, want := queryOIDs(t, s, rels, ref), queryOIDs(t, oracle, rels, ref); !oidsEqual(got, want) {
							t.Fatalf("after border delete: got %v want %v", got, want)
						}
					}
				})
			}
		}
	}
}

func TestShardedKNNDifferential(t *testing.T) {
	ds := workload.NewDataset(workload.Small, 900, 0, 7)
	for _, kind := range index.AllKinds() {
		oracle := buildSingle(t, kind, ds.Items)
		for _, shards := range shardCounts {
			t.Run(fmt.Sprintf("%v/shards=%d", kind, shards), func(t *testing.T) {
				s := buildSharded(t, kind, ds.Items, shards)
				for _, p := range []geom.Point{
					{X: 500, Y: 500}, {X: 0, Y: 0}, {X: 1000, Y: 1000}, {X: 250, Y: 750},
				} {
					for _, k := range []int{1, 5, 40} {
						want, _, err := oracle.NearestCtx(context.Background(), p, k)
						if err != nil {
							t.Fatalf("oracle NearestCtx: %v", err)
						}
						got, _, err := s.NearestCtx(context.Background(), p, k)
						if err != nil {
							t.Fatalf("sharded NearestCtx: %v", err)
						}
						assertNeighboursEqual(t, p, k, got, want)
					}
				}
			})
		}
	}
}

func assertNeighboursEqual(t testing.TB, p geom.Point, k int, got, want []rtree.Neighbour) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("kNN(%v, k=%d): sharded %d results, oracle %d", p, k, len(got), len(want))
	}
	for i := range got {
		if got[i].OID != want[i].OID || got[i].Dist != want[i].Dist || got[i].Rect != want[i].Rect {
			t.Fatalf("kNN(%v, k=%d)[%d]: sharded %+v, oracle %+v", p, k, i, got[i], want[i])
		}
	}
}

func joinPairSet(t testing.TB, left, right index.Index, rels topo.Set, opts query.JoinOptions) [][2]uint64 {
	t.Helper()
	var pairs [][2]uint64
	_, err := query.JoinStream(context.Background(), left, right, rels, opts, func(p query.JoinPair) bool {
		pairs = append(pairs, [2]uint64{p.LeftOID, p.RightOID})
		return true
	})
	if err != nil {
		t.Fatalf("JoinStream(%v): %v", rels, err)
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i][0] != pairs[j][0] {
			return pairs[i][0] < pairs[j][0]
		}
		return pairs[i][1] < pairs[j][1]
	})
	return pairs
}

func pairsEqual(a, b [][2]uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestShardedJoinDifferential(t *testing.T) {
	for wname, ds := range workloads(300, 0) {
		for _, kind := range []index.Kind{index.KindRTree, index.KindRStar} {
			for _, shards := range shardCounts {
				t.Run(fmt.Sprintf("%s/%v/shards=%d", wname, kind, shards), func(t *testing.T) {
					oracle := buildSingle(t, kind, ds.Items)
					s := buildSharded(t, kind, ds.Items, shards)
					border := borderItems(s, uint64(len(ds.Items)+1))
					for _, it := range border {
						if err := s.Insert(it.Rect, it.OID); err != nil {
							t.Fatalf("sharded Insert: %v", err)
						}
						if err := oracle.Insert(it.Rect, it.OID); err != nil {
							t.Fatalf("oracle Insert: %v", err)
						}
					}
					for _, rel := range topo.All() {
						rels := topo.NewSet(rel)
						want := joinPairSet(t, oracle, oracle, rels, query.JoinOptions{})
						got := joinPairSet(t, s, s, rels, query.JoinOptions{})
						if !pairsEqual(got, want) {
							t.Fatalf("self-join %v: sharded %d pairs, oracle %d pairs", rel, len(got), len(want))
						}
					}
				})
			}
		}
	}
}

// TestShardedJoinMixedSides joins a sharded left against a
// differently-sharded right and against a plain single index; both
// must match the single×single oracle.
func TestShardedJoinMixedSides(t *testing.T) {
	left := workload.NewDataset(workload.Small, 250, 0, 11)
	right := workload.NewDataset(workload.Small, 250, 0, 12)
	for i := range right.Items {
		right.Items[i].OID += 10000
	}
	oracleL := buildSingle(t, index.KindRTree, left.Items)
	oracleR := buildSingle(t, index.KindRTree, right.Items)
	sL := buildSharded(t, index.KindRTree, left.Items, 3)
	sR := buildSharded(t, index.KindRTree, right.Items, 5)
	rels := topo.NewSet(topo.Overlap, topo.Meet, topo.Inside)
	want := joinPairSet(t, oracleL, oracleR, rels, query.JoinOptions{})
	for name, pair := range map[string][2]index.Index{
		"sharded×sharded": {sL, sR},
		"sharded×single":  {sL, oracleR},
		"single×sharded":  {oracleL, sR},
	} {
		if got := joinPairSet(t, pair[0], pair[1], rels, query.JoinOptions{}); !pairsEqual(got, want) {
			t.Fatalf("%s: %d pairs, oracle %d pairs", name, len(got), len(want))
		}
	}
}
