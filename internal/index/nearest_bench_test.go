package index_test

import (
	"context"
	"math/rand"
	"testing"

	"mbrtopo/internal/geom"
	"mbrtopo/internal/index"
	"mbrtopo/internal/rtree"
	"mbrtopo/internal/workload"
)

// nearestSink keeps BenchmarkNearest's answers alive.
var nearestSink []rtree.Neighbour

// BenchmarkNearest times a 10-NN on 100 000 medium objects in an
// STR-packed R*-tree at the paper's page size, from 1 024 uniform points
// taken in turn. accesses/op is the mean of the searches' node accesses;
// it counts pages, so it must not move when only the search's speed
// does.
//
//	go test -run '^$' -bench '^BenchmarkNearest$' -benchmem -cpu 1 ./internal/index
func BenchmarkNearest(b *testing.B) {
	idx, err := index.NewPacked(index.KindRStar, index.PaperPageSize, workload.NewDataset(workload.Medium, 100000, 0, 3).Items)
	if err != nil {
		b.Fatal(err)
	}
	world := workload.World()
	rng := rand.New(rand.NewSource(5))
	points := make([]geom.Point, 1024)
	for i := range points {
		points[i] = geom.Point{X: world.Min.X + rng.Float64()*world.Width(), Y: world.Min.Y + rng.Float64()*world.Height()}
	}
	ctx := context.Background()
	var accesses uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nn, ts, err := idx.NearestCtx(ctx, points[i%len(points)], 10)
		if err != nil {
			b.Fatal(err)
		}
		nearestSink = nn
		accesses += ts.NodeAccesses
	}
	b.ReportMetric(float64(accesses)/float64(b.N), "accesses/op")
}

// BenchmarkInsertDelete times one write pair on the tree BenchmarkNearest
// searches: an insert of a medium rectangle under a new object id, then
// its delete, from 1 024 rectangles taken in turn, so the tree keeps its
// 100 000 objects. Each mutation copies the nodes it changes and
// publishes a snapshot; what it tracks of them must cost what it
// created, not what the STR pack created before it.
//
//	go test -run '^$' -bench '^BenchmarkInsertDelete$' -benchmem -cpu 1 ./internal/index
func BenchmarkInsertDelete(b *testing.B) {
	ds := workload.NewDataset(workload.Medium, 100000, 1024, 3)
	idx, err := index.NewPacked(index.KindRStar, index.PaperPageSize, ds.Items)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % len(ds.Queries)
		r, oid := ds.Queries[k], uint64(len(ds.Items)+1+k)
		if err := idx.Insert(r, oid); err != nil {
			b.Fatal(err)
		}
		if err := idx.Delete(r, oid); err != nil {
			b.Fatal(err)
		}
	}
}
