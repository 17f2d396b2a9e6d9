package rtree

import (
	"math"
	"sync"

	"mbrtopo/internal/geom"
)

// This file implements node-MBR statistics: per-level summaries plus
// small per-axis histograms of leaf-entry centres and extents, the
// input of the cost-based query planner (package query). Statistics
// are collected in one traversal of the published snapshot, cached,
// and invalidated by a staleness counter that mutations bump — a
// Stats() call recollects once the tree has drifted far enough from
// the cached summary.

// histBins is the resolution of the per-axis histograms. 16 bins keep
// a TreeStats under ~1 KiB encoded while still separating a dense
// cluster from a sparse region — all the planner needs to order
// conjunction terms.
const histBins = 16

// AxisHist summarises the distribution of leaf-entry projections on
// one axis: an equi-width histogram of interval centres over the
// tree's bounds, and a logarithmic histogram of interval extents
// relative to the bounds extent (ExtentLog[b] counts extents in
// (span·2^-(b+1), span·2^-b]; the last bin absorbs everything
// smaller). The log scale makes the extent summary robust to the
// skewed extent distributions of real datasets.
type AxisHist struct {
	Lo         float64       `json:"lo"`
	Hi         float64       `json:"hi"`
	Centers    [histBins]int `json:"centers"`
	ExtentLog  [histBins]int `json:"extent_log"`
	MeanExtent float64       `json:"mean_extent"`
}

// LevelStats summarises the nodes of one tree level (0 = leaves):
// count, entry count, and the area and margin sums of the node MBRs —
// the classic R-tree quality metrics, reported per level so a
// degenerating level shows up in isolation.
type LevelStats struct {
	Level     int     `json:"level"`
	Nodes     int     `json:"nodes"`
	Entries   int     `json:"entries"`
	AreaSum   float64 `json:"area_sum"`
	MarginSum float64 `json:"margin_sum"`
}

// TreeStats is the node-MBR summary of one index. Every tree kind and
// the sharded router answer the same Stats() call with this type, so
// the planner does not care which it plans for.
type TreeStats struct {
	Entries int          `json:"entries"` // stored entries (Len at collection time)
	Height  int          `json:"height"`
	Bounds  geom.Rect    `json:"bounds"`
	Levels  []LevelStats `json:"levels"` // Levels[i] describes level i (0 = leaves)
	X       AxisHist     `json:"x"`
	Y       AxisHist     `json:"y"`
}

// Clone returns an independent deep copy.
func (st *TreeStats) Clone() *TreeStats {
	out := *st
	out.Levels = append([]LevelStats(nil), st.Levels...)
	return &out
}

// Samples returns the number of leaf entries the histograms were
// built from (≥ Entries for R+-trees, which clip objects into several
// leaf entries).
func (st *TreeStats) Samples() int {
	n := 0
	for _, c := range st.X.Centers {
		n += c
	}
	return n
}

// statsAcc accumulates a TreeStats over a node walk.
type statsAcc struct {
	st       *TreeStats
	extSumX  float64
	extSumY  float64
	leafSeen int
}

func newStatsAcc(bounds geom.Rect, entries, depth int) *statsAcc {
	if depth < 1 {
		depth = 1
	}
	st := &TreeStats{Entries: entries, Height: depth, Bounds: bounds}
	st.Levels = make([]LevelStats, depth)
	for i := range st.Levels {
		st.Levels[i].Level = i
	}
	st.X.Lo, st.X.Hi = bounds.Min.X, bounds.Max.X
	st.Y.Lo, st.Y.Hi = bounds.Min.Y, bounds.Max.Y
	return &statsAcc{st: st}
}

func (a *statsAcc) addNode(n *node) {
	if n.level >= len(a.st.Levels) {
		// Defensive: grow for a level the recorded depth missed.
		for len(a.st.Levels) <= n.level {
			a.st.Levels = append(a.st.Levels, LevelStats{Level: len(a.st.Levels)})
		}
	}
	ls := &a.st.Levels[n.level]
	ls.Nodes++
	ls.Entries += len(n.entries)
	if m := n.mbr(); m.Valid() {
		ls.AreaSum += m.Area()
		ls.MarginSum += m.Margin()
	}
	if !n.isLeaf() {
		return
	}
	for i := range n.entries {
		r := &n.entries[i].Rect
		c := r.Center()
		a.st.X.Centers[a.st.X.centerBin(c.X)]++
		a.st.Y.Centers[a.st.Y.centerBin(c.Y)]++
		w, h := r.Width(), r.Height()
		a.st.X.ExtentLog[extentBin(w, a.st.X.Hi-a.st.X.Lo)]++
		a.st.Y.ExtentLog[extentBin(h, a.st.Y.Hi-a.st.Y.Lo)]++
		a.extSumX += w
		a.extSumY += h
		a.leafSeen++
	}
}

func (a *statsAcc) finish() *TreeStats {
	if a.leafSeen > 0 {
		a.st.X.MeanExtent = a.extSumX / float64(a.leafSeen)
		a.st.Y.MeanExtent = a.extSumY / float64(a.leafSeen)
	}
	return a.st
}

// collectStats walks the tree rooted at root through src and builds
// its summary. Reads go through the ordinary node path, so the walk
// costs one page read per node (it runs only when the cached summary
// has gone stale).
func collectStats(src *store, root uint64, entries, depth int) (*TreeStats, error) {
	rn, err := src.readNodeRef(root)
	if err != nil {
		return nil, err
	}
	if len(rn.entries) == 0 {
		return newStatsAcc(geom.Rect{}, 0, depth).finish(), nil
	}
	acc := newStatsAcc(rn.mbr(), entries, depth)
	stack := []uint64{root}
	for len(stack) > 0 {
		ref := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		n, err := src.readNodeRef(ref)
		if err != nil {
			return nil, err
		}
		acc.addNode(n)
		if !n.isLeaf() {
			for i := range n.entries {
				stack = append(stack, n.childRef(i))
			}
		}
	}
	return acc.finish(), nil
}

// centerBin maps a centre coordinate to its histogram bin.
func (h *AxisHist) centerBin(c float64) int {
	span := h.Hi - h.Lo
	if span <= 0 {
		return 0
	}
	b := int((c - h.Lo) / span * histBins)
	if b < 0 {
		b = 0
	}
	if b >= histBins {
		b = histBins - 1
	}
	return b
}

// extentBin maps an extent to its logarithmic bin relative to span.
func extentBin(extent, span float64) int {
	if span <= 0 || extent <= 0 {
		return histBins - 1
	}
	f := -math.Log2(extent / span)
	if f <= 0 {
		return 0
	}
	b := int(f)
	if b >= histBins {
		b = histBins - 1
	}
	return b
}

// CenterFrac estimates the fraction of leaf-entry centres whose
// projection falls inside [lo, hi], with linear interpolation inside
// partially covered bins.
func (h *AxisHist) CenterFrac(lo, hi float64) float64 {
	total := 0
	for _, c := range h.Centers {
		total += c
	}
	if total == 0 || hi <= lo {
		return 0
	}
	span := h.Hi - h.Lo
	if span <= 0 {
		// Degenerate domain: every centre sits at the same coordinate.
		if lo <= h.Lo && h.Lo <= hi {
			return 1
		}
		return 0
	}
	width := span / histBins
	sum := 0.0
	for i, c := range h.Centers {
		if c == 0 {
			continue
		}
		binLo := h.Lo + float64(i)*width
		binHi := binLo + width
		ov := math.Min(hi, binHi) - math.Max(lo, binLo)
		if ov <= 0 {
			continue
		}
		if ov > width {
			ov = width
		}
		sum += float64(c) * ov / width
	}
	return sum / float64(total)
}

// ExtentAtLeastFrac estimates the fraction of leaf-entry extents that
// are ≥ w on this axis; ExtentAtMostFrac the complement. The shared
// bin of w itself is split evenly.
func (h *AxisHist) ExtentAtLeastFrac(w float64) float64 {
	total := 0
	for _, c := range h.ExtentLog {
		total += c
	}
	if total == 0 {
		return 0
	}
	if w <= 0 {
		return 1
	}
	wb := extentBin(w, h.Hi-h.Lo)
	sum := 0.0
	for b, c := range h.ExtentLog {
		switch {
		case b < wb: // larger extents than w's bin
			sum += float64(c)
		case b == wb:
			sum += float64(c) / 2
		}
	}
	return sum / float64(total)
}

// ExtentAtMostFrac estimates the fraction of extents ≤ w.
func (h *AxisHist) ExtentAtMostFrac(w float64) float64 {
	total := 0
	for _, c := range h.ExtentLog {
		total += c
	}
	if total == 0 {
		return 0
	}
	return 1 - h.ExtentAtLeastFrac(w)
}

// EstimateIntersecting estimates how many stored rectangles intersect
// ref: per axis, the centre must fall within ref expanded by half the
// mean extent (the classical R-tree selectivity model), and the axes
// are treated as independent.
func (st *TreeStats) EstimateIntersecting(ref geom.Rect) float64 {
	n := st.Samples()
	if n == 0 {
		return 0
	}
	fx := st.X.CenterFrac(ref.Min.X-st.X.MeanExtent/2, ref.Max.X+st.X.MeanExtent/2)
	fy := st.Y.CenterFrac(ref.Min.Y-st.Y.MeanExtent/2, ref.Max.Y+st.Y.MeanExtent/2)
	return fx * fy * float64(n)
}

// EstimateContainedBy estimates how many stored rectangles lie inside
// ref: intersecting, small enough on both axes.
func (st *TreeStats) EstimateContainedBy(ref geom.Rect) float64 {
	return st.EstimateIntersecting(ref) *
		st.X.ExtentAtMostFrac(ref.Width()) *
		st.Y.ExtentAtMostFrac(ref.Height())
}

// EstimateContaining estimates how many stored rectangles contain
// ref: their centre must be near ref and their extents at least ref's.
func (st *TreeStats) EstimateContaining(ref geom.Rect) float64 {
	return st.EstimateIntersecting(ref) *
		st.X.ExtentAtLeastFrac(ref.Width()) *
		st.Y.ExtentAtLeastFrac(ref.Height())
}

// MergeStats combines per-tile summaries into one (the sharded
// router's Stats). Centre histograms are redistributed into the union
// domain proportionally to bin overlap; extent histograms are shifted
// by the log-ratio of the domain spans.
func MergeStats(parts []*TreeStats) *TreeStats {
	var live []*TreeStats
	for _, p := range parts {
		if p != nil && p.Samples() > 0 {
			live = append(live, p)
		}
	}
	if len(live) == 0 {
		return &TreeStats{Height: 1, Levels: []LevelStats{{}}}
	}
	bounds := live[0].Bounds
	height := 0
	entries := 0
	for _, p := range live {
		bounds = bounds.Union(p.Bounds)
		if p.Height > height {
			height = p.Height
		}
		entries += p.Entries
	}
	acc := newStatsAcc(bounds, entries, height)
	out := acc.st
	var extSumX, extSumY float64
	samples := 0
	for _, p := range live {
		for _, ls := range p.Levels {
			for len(out.Levels) <= ls.Level {
				out.Levels = append(out.Levels, LevelStats{Level: len(out.Levels)})
			}
			o := &out.Levels[ls.Level]
			o.Nodes += ls.Nodes
			o.Entries += ls.Entries
			o.AreaSum += ls.AreaSum
			o.MarginSum += ls.MarginSum
		}
		n := p.Samples()
		samples += n
		extSumX += p.X.MeanExtent * float64(n)
		extSumY += p.Y.MeanExtent * float64(n)
		mergeAxis(&out.X, &p.X)
		mergeAxis(&out.Y, &p.Y)
	}
	if samples > 0 {
		out.X.MeanExtent = extSumX / float64(samples)
		out.Y.MeanExtent = extSumY / float64(samples)
	}
	return out
}

// mergeAxis folds src's histograms into dst's (possibly wider) domain.
func mergeAxis(dst, src *AxisHist) {
	srcSpan := src.Hi - src.Lo
	dstSpan := dst.Hi - dst.Lo
	srcWidth := srcSpan / histBins
	for i, c := range src.Centers {
		if c == 0 {
			continue
		}
		if srcWidth <= 0 || dstSpan <= 0 {
			dst.Centers[dst.centerBin(src.Lo)] += c
			continue
		}
		// Spread the bin's count over the destination bins it overlaps.
		binLo := src.Lo + float64(i)*srcWidth
		lo, hi := dst.centerBin(binLo), dst.centerBin(binLo+srcWidth)
		if hi < lo {
			lo, hi = hi, lo
		}
		per := c / (hi - lo + 1)
		rem := c - per*(hi-lo+1)
		for b := lo; b <= hi; b++ {
			dst.Centers[b] += per
		}
		dst.Centers[lo] += rem
	}
	shift := 0
	if srcSpan > 0 && dstSpan > 0 {
		shift = int(math.Round(math.Log2(dstSpan / srcSpan)))
	}
	for i, c := range src.ExtentLog {
		if c == 0 {
			continue
		}
		b := i + shift
		if b < 0 {
			b = 0
		}
		if b >= histBins {
			b = histBins - 1
		}
		dst.ExtentLog[b] += c
	}
}

// staleLimit is how many mutations a cached summary may absorb before
// Stats() recollects: 10% of the summarised entries, at least 100.
func staleLimit(entries int) int {
	if l := entries / 10; l > 100 {
		return l
	}
	return 100
}

// statsCache is a mutable tree's cached node-MBR summary and the number
// of mutations it has absorbed since it was collected. A published
// summary is never modified, only replaced.
type statsCache struct {
	statsMu    sync.Mutex
	stats      *TreeStats
	statsStale int
}

// cachedStats returns the summary, recollecting it when there is none
// or the cached copy has gone stale. collect runs outside statsMu —
// writers bump the staleness counter under it while holding their own
// lock, so nesting the two the other way around would deadlock — and
// two racing collectors both store a fresh summary, which is harmless.
func (c *statsCache) cachedStats(collect func() (*TreeStats, error)) (*TreeStats, error) {
	c.statsMu.Lock()
	st := c.stats
	fresh := st != nil && c.statsStale <= staleLimit(st.Entries)
	c.statsMu.Unlock()
	if !fresh {
		var err error
		if st, err = collect(); err != nil {
			return nil, err
		}
		c.statsMu.Lock()
		c.stats, c.statsStale = st, 0
		c.statsMu.Unlock()
	}
	return st.Clone(), nil
}

// noteMutations bumps the staleness counter by n applied mutations.
func (c *statsCache) noteMutations(n int) {
	c.statsMu.Lock()
	c.statsStale += n
	c.statsMu.Unlock()
}

// Stats returns the tree's node-MBR summary. The collection walk pins
// the published snapshot, so it never blocks writers.
func (t *Tree) Stats() (*TreeStats, error) {
	return t.cachedStats(func() (*TreeStats, error) {
		s := t.acquire()
		defer t.release(s)
		return collectStats(t.st, uint64(s.root), s.size, s.depth)
	})
}

// Stats returns the R+-tree's node-MBR summary (same contract as
// Tree.Stats). The collection walk runs under the read lock.
func (t *RPlusTree) Stats() (*TreeStats, error) {
	return t.cachedStats(func() (*TreeStats, error) {
		t.mu.RLock()
		defer t.mu.RUnlock()
		return collectStats(t.st, uint64(t.root), t.size, t.depth)
	})
}
