package experiments

import (
	"fmt"
	"strings"

	"mbrtopo/internal/index"
	"mbrtopo/internal/query"
	"mbrtopo/internal/rtree"
	"mbrtopo/internal/shard"
	"mbrtopo/internal/topo"
	"mbrtopo/internal/workload"
)

// ShardRow is the per-relation comparison between the single packed
// index and the STR tile-sharded router at each tile count.
type ShardRow struct {
	Relation topo.Relation
	// Accesses[i] is the mean node accesses per query for
	// ShardCounts[i] tiles (1 = the single-index baseline).
	Accesses []float64
	Hits     float64
}

// ShardResult compares scatter-gather retrieval cost against the
// single-index baseline. Node accesses are the paper's cost metric;
// sharding trades a handful of extra root reads (one per searched
// tile) for tile-level pruning — tiles whose bounds cannot satisfy
// the node predicate are never entered at all.
type ShardResult struct {
	Config      Config
	Class       workload.SizeClass
	ShardCounts []int
	Rows        []ShardRow
	// Searched/Pruned are the router's cumulative tile counters at the
	// largest tile count, summed over every relation and query.
	Searched, Pruned uint64
}

// RunShard STR-partitions the data file and routes every relation's
// query set through the scatter-gather router at several tile counts,
// recording mean node accesses against the single packed index.
func RunShard(cfg Config, class workload.SizeClass) (*ShardResult, error) {
	d := cfg.dataset(class)
	counts := []int{1, 2, 4, 8}
	out := &ShardResult{Config: cfg, Class: class, ShardCounts: counts}

	procs := make([]*query.Processor, len(counts))
	var last *shard.Sharded
	for i, n := range counts {
		idx, sh, err := buildShardedPacked(cfg, d.Items, n)
		if err != nil {
			return nil, err
		}
		procs[i] = &query.Processor{Idx: idx}
		if sh != nil {
			last = sh
		}
	}

	for _, rel := range relationOrder {
		row := ShardRow{Relation: rel, Accesses: make([]float64, len(counts))}
		for i, proc := range procs {
			acc, hits, err := perSearch(proc, rel, d.Queries)
			if err != nil {
				return nil, err
			}
			row.Accesses[i] = acc
			if i == 0 {
				row.Hits = hits
			}
		}
		out.Rows = append(out.Rows, row)
	}
	if last != nil {
		st := last.RouterStats()
		out.Searched, out.Pruned = st.Searched, st.Pruned
	}
	return out, nil
}

// buildShardedPacked bulk-packs the items into n STR tiles behind the
// router (n == 1 returns the plain packed index as the baseline).
func buildShardedPacked(cfg Config, items []index.Item, n int) (index.Index, *shard.Sharded, error) {
	if n == 1 {
		idx, err := cfg.buildPacked(items)
		return idx, nil, err
	}
	recs := make([]rtree.Record, len(items))
	for i, it := range items {
		recs[i] = rtree.Record{Rect: it.Rect, OID: it.OID}
	}
	tiles := make([]index.Index, n)
	for i, part := range rtree.STRPartition(recs, n) {
		tileItems := make([]index.Item, len(part))
		for j, r := range part {
			tileItems[j] = index.Item{Rect: r.Rect, OID: r.OID}
		}
		idx, err := cfg.buildPacked(tileItems)
		if err != nil {
			return nil, nil, err
		}
		tiles[i] = idx
	}
	sh := shard.New(tiles...)
	return sh, sh, nil
}

// Render prints per-relation node accesses per tile count plus the
// router's tile-pruning ratio.
func (r *ShardResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Scatter-gather retrieval cost vs single packed R-tree (%s data, %d objects)\n\n",
		r.Class, r.Config.NData)
	header := []string{"relation", "hits"}
	for _, n := range r.ShardCounts {
		if n == 1 {
			header = append(header, "single acc")
		} else {
			header = append(header, fmt.Sprintf("%d-tile acc", n))
		}
	}
	t := &table{header: header}
	for _, row := range r.Rows {
		cells := []string{row.Relation.String(), fmt.Sprintf("%.1f", row.Hits)}
		for _, a := range row.Accesses {
			cells = append(cells, fmt.Sprintf("%.1f", a))
		}
		t.addRow(cells...)
	}
	b.WriteString(t.String())
	if tot := r.Searched + r.Pruned; tot > 0 {
		fmt.Fprintf(&b, "\nrouter at %d tiles: %d tile searches, %d pruned (%.0f%% of fan-out avoided)\n",
			r.ShardCounts[len(r.ShardCounts)-1], r.Searched, r.Pruned,
			100*float64(r.Pruned)/float64(tot))
	}
	return b.String()
}
