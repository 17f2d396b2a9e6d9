package rtree

import (
	"context"
	"errors"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"mbrtopo/internal/geom"
)

// This file is the spatial-join engine: a synchronized traversal of
// two R-/R*-trees (the classic tree-matching join of Brinkhoff,
// Kriegel and Seeger, which the paper's multi-step line of work builds
// on), with three optimisations over the textbook nested loop:
//
//   - every child page is read at most once per node pair (the nested
//     loop re-reads the right child for every matching left entry);
//   - when the caller asserts that qualifying pairs always share a
//     point (every topological relation set except ones containing
//     disjoint), entries are matched by a forward plane sweep over
//     their low-x order, restricted to the intersection of the two
//     node MBRs, so only x-overlapping combinations are tested;
//   - the top-level node pairs (and, when that fans out too little,
//     the second-level pairs) are distributed over a bounded worker
//     pool. All workers traverse the same two pinned snapshots, and
//     their per-worker TraversalStats are merged at the end, so the
//     returned counts are exactly the serial engine's.
//
// The join pins one published snapshot of each tree for its whole
// duration, so it runs in parallel with other readers and never blocks
// (or is blocked by) writers; self-joins see a single consistent
// version.

// JoinOptions tune JoinCtx.
type JoinOptions struct {
	// Workers bounds the traversal worker pool. 0 (or negative) uses
	// GOMAXPROCS; 1 runs the whole join on the calling goroutine.
	Workers int
	// Intersecting asserts that every pair accept (and prune) can admit
	// shares at least one point on each axis. It enables the plane-sweep
	// matcher and node-MBR clipping, which only enumerate axis-
	// overlapping combinations; setting it when axis-disjoint pairs can
	// qualify loses results.
	Intersecting bool
	// SweepDensity is the caller's estimate of the fraction of entry
	// pairs in a typical node pair that x-overlap (the sweep's tested
	// fraction), usually derived from node-MBR statistics. With it the
	// matcher decides sweep vs nested loop per node pair: the sweep
	// saves (1 − density)·m·n tests but pays a sort, so small or dense
	// pairs match faster by the plain loop. 0 means unknown — then only
	// the pair size gates the sweep. Ignored unless Intersecting.
	SweepDensity float64
}

// sweepMinPairs is the entry-count product under which the sweep's
// clip-filter-sort setup cannot pay for itself regardless of density.
const sweepMinPairs = 16

// joinFanout is the task-to-worker ratio under which the coordinator
// expands a second tree level before fanning out, so a small top level
// (large page size, small trees) still feeds every worker.
const joinFanout = 4

// Joinable is a read view the join engine can traverse: an R-/R*-tree
// working copy (*Tree) or an immutable flat snapshot (*FlatTree). The
// unexported method keeps implementations inside this package, where
// node ownership and stats accounting live.
type Joinable interface {
	// joinView pins one consistent version of the tree and returns its
	// node source, root reference, and a release function that must be
	// called when the join is done with the view.
	joinView() (NodeSource, uint64, func())
}

// joinView pins the currently published snapshot, exactly like a
// search does, so the join runs in parallel with writers.
func (t *Tree) joinView() (NodeSource, uint64, func()) {
	s := t.acquire()
	return t.st, uint64(s.root), func() { t.release(s) }
}

// errJoinStop signals that emit asked the join to stop; it never
// escapes this file.
var errJoinStop = errors.New("rtree: join stopped by emit")

// JoinCtx is the spatial join engine: a synchronised traversal of both
// trees with context cancellation (checked before every page read),
// plane-sweep matching, and a worker pool (see JoinOptions). prune is
// called on pairs of covering rectangles (node-node, node-leafMBR);
// when it returns false the pair's subtrees are skipped. accept is
// called on leaf entry rectangle pairs; matching pairs are passed to
// emit as two Hits (return false to stop). Self-joins (t1 == t2) are
// supported. emit is never called concurrently, regardless of the
// worker count, so caller-side closures need no locking; the order in
// which pairs are emitted is unspecified.
//
// The returned TraversalStats counts the pages this join read across
// both trees — exact per-operation accounting, independent of any
// concurrent queries on either index. On cancellation JoinCtx returns
// ctx.Err() with the stats accumulated so far; a join stopped by emit
// returns nil like a completed one.
func JoinCtx(ctx context.Context, t1, t2 Joinable,
	prune func(a, b geom.Rect) bool,
	accept func(a, b geom.Rect) bool,
	emit func(a, b Hit) bool,
	opts JoinOptions,
) (TraversalStats, error) {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	src1, root1, rel1 := t1.joinView()
	defer rel1()
	src2, root2 := src1, root1
	if t2 != t1 {
		var rel2 func()
		src2, root2, rel2 = t2.joinView()
		defer rel2()
	}
	jctx, cancel := context.WithCancel(ctx)
	defer cancel()
	e := &joinEngine{
		src1: src1, src2: src2,
		prune: prune, accept: accept, emit: emit,
		opts: opts, ctx: jctx, cancel: cancel,
	}
	coord := &joinWorker{e: e}
	r1, err := coord.read1(root1)
	if err != nil {
		return coord.stats, e.finish(err)
	}
	r2, err := coord.read2(root2)
	if err != nil {
		return coord.stats, e.finish(err)
	}
	if len(r1.entries) == 0 || len(r2.entries) == 0 || !prune(r1.mbr(), r2.mbr()) {
		return coord.stats, nil
	}
	if workers == 1 {
		return coord.stats, e.finish(coord.join(r1, r2))
	}
	return e.parallel(coord, r1, r2, workers)
}

// joinEngine is the state shared by all workers of one join.
type joinEngine struct {
	src1, src2 NodeSource
	prune      func(a, b geom.Rect) bool
	accept     func(a, b geom.Rect) bool
	emit       func(a, b Hit) bool
	opts       JoinOptions

	ctx     context.Context
	cancel  context.CancelFunc
	emitMu  sync.Mutex
	stopped atomic.Bool // emit returned false: stop without error
}

// stop halts every worker after emit declined more results.
func (e *joinEngine) stop() {
	e.stopped.Store(true)
	e.cancel()
}

// finish maps a traversal outcome to the join's return error: a stop
// requested by emit is a clean completion, everything else (including
// external cancellation surfacing through page-read checks) is
// reported as is.
func (e *joinEngine) finish(err error) error {
	if e.stopped.Load() || errors.Is(err, errJoinStop) {
		return nil
	}
	return err
}

// parallel fans the join out: the coordinator expands the top level
// (and, below joinFanout tasks per worker, the level below) into node
// pairs, reading each child page once per pair exactly like the serial
// recursion would, then the pairs are joined by the worker pool.
func (e *joinEngine) parallel(coord *joinWorker, r1, r2 *node, workers int) (TraversalStats, error) {
	tasks, err := coord.expand(r1, r2)
	if err != nil {
		return coord.stats, e.finish(err)
	}
	if len(tasks) < workers*joinFanout {
		wider := make([]joinTask, 0, 2*len(tasks))
		for _, t := range tasks {
			if t.n1.isLeaf() && t.n2.isLeaf() {
				wider = append(wider, t)
				continue
			}
			sub, err := coord.expand(t.n1, t.n2)
			if err != nil {
				return coord.stats, e.finish(err)
			}
			wider = append(wider, sub...)
		}
		tasks = wider
	}

	var (
		wg      sync.WaitGroup
		pool    = make([]*joinWorker, workers)
		errOnce sync.Once
		joinErr error
	)
	fail := func(err error) {
		errOnce.Do(func() {
			joinErr = err
			e.cancel()
		})
	}
	taskCh := make(chan joinTask)
	for i := range pool {
		w := &joinWorker{e: e}
		pool[i] = w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for t := range taskCh {
				if err := w.join(t.n1, t.n2); err != nil {
					fail(err)
					return
				}
			}
		}()
	}
feed:
	for _, t := range tasks {
		select {
		case taskCh <- t:
		case <-e.ctx.Done():
			break feed
		}
	}
	close(taskCh)
	wg.Wait()
	stats := coord.stats
	for _, w := range pool {
		stats = stats.Add(w.stats)
	}
	if err := e.finish(joinErr); err != nil {
		return stats, err
	}
	if !e.stopped.Load() {
		// The feed loop may have been broken by external cancellation
		// without any worker observing it.
		if err := e.ctx.Err(); err != nil {
			return stats, err
		}
	}
	return stats, nil
}

// joinTask is one node pair awaiting synchronized descent.
type joinTask struct{ n1, n2 *node }

// joinWorker runs part of a join with its own statistics; the merged
// worker stats equal the serial engine's, since the task expansion
// charges reads identically.
type joinWorker struct {
	e     *joinEngine
	stats TraversalStats
}

// read1/read2 use each tree's own node source (they may share a page
// file or not) and charge the reads to this worker's stats.
// Cancellation is checked before every read, so an abandoned join
// stops within one page read.
func (w *joinWorker) read1(ref uint64) (*node, error) { return w.read(w.e.src1, ref) }
func (w *joinWorker) read2(ref uint64) (*node, error) { return w.read(w.e.src2, ref) }

func (w *joinWorker) read(src NodeSource, ref uint64) (*node, error) {
	if err := w.e.ctx.Err(); err != nil {
		return nil, err
	}
	n, err := src.readNodeRef(ref)
	if err != nil {
		return nil, err
	}
	w.stats.NodesVisited++
	w.stats.NodeAccesses += n.accessCost()
	return n, nil
}

// emitPair delivers one accepted leaf pair. The engine mutex
// serialises emit across workers; after a stop no further pair is
// delivered, so Emitted is exactly the number of emit calls.
func (w *joinWorker) emitPair(n1 *node, i int, n2 *node, j int) error {
	e1, e2 := &n1.entries[i], &n2.entries[j]
	e := w.e
	e.emitMu.Lock()
	if e.stopped.Load() {
		e.emitMu.Unlock()
		return errJoinStop
	}
	w.stats.Emitted++
	ok := e.emit(Hit{Rect: e1.Rect, OID: e1.OID, leaf: n1, at: i}, Hit{Rect: e2.Rect, OID: e2.OID, leaf: n2, at: j})
	if !ok {
		// Under the lock, or a worker waiting on it emits one pair more
		// than emit asked for.
		e.stopped.Store(true)
	}
	e.emitMu.Unlock()
	if !ok {
		e.stop()
		return errJoinStop
	}
	return nil
}

// join recurses over a node pair; the pair itself already passed the
// prune test.
func (w *joinWorker) join(n1, n2 *node) error {
	switch {
	case n1.isLeaf() && n2.isLeaf():
		return w.match(n1, n2, w.e.accept, func(i, j int) error {
			return w.emitPair(n1, i, n2, j)
		})
	case n1.isLeaf():
		// Height mismatch: descend the right side only.
		m1 := n1.mbr()
		for j := range n2.entries {
			e2 := &n2.entries[j]
			if !w.e.prune(m1, e2.Rect) {
				continue
			}
			c2, err := w.read2(n2.childRef(j))
			if err != nil {
				return err
			}
			if err := w.join(n1, c2); err != nil {
				return err
			}
		}
		return nil
	case n2.isLeaf():
		m2 := n2.mbr()
		for i := range n1.entries {
			e1 := &n1.entries[i]
			if !w.e.prune(e1.Rect, m2) {
				continue
			}
			c1, err := w.read1(n1.childRef(i))
			if err != nil {
				return err
			}
			if err := w.join(c1, n2); err != nil {
				return err
			}
		}
		return nil
	default:
		// Internal-internal: lazily read every child at most once for
		// this node pair, however many partners its entry matches.
		left := make([]*node, len(n1.entries))
		right := make([]*node, len(n2.entries))
		return w.match(n1, n2, w.e.prune, func(i, j int) error {
			var err error
			if left[i] == nil {
				if left[i], err = w.read1(n1.childRef(i)); err != nil {
					return err
				}
			}
			if right[j] == nil {
				if right[j], err = w.read2(n2.childRef(j)); err != nil {
					return err
				}
			}
			return w.join(left[i], right[j])
		})
	}
}

// expand reads the children of one node pair (each page at most once,
// exactly as the serial recursion charges them) and returns the child
// pairs that survive pruning. Leaf-leaf pairs are returned as they
// are; height-mismatched pairs descend the taller side.
func (w *joinWorker) expand(n1, n2 *node) ([]joinTask, error) {
	var tasks []joinTask
	switch {
	case n1.isLeaf() && n2.isLeaf():
		return []joinTask{{n1, n2}}, nil
	case n1.isLeaf():
		m1 := n1.mbr()
		for j := range n2.entries {
			e2 := &n2.entries[j]
			if !w.e.prune(m1, e2.Rect) {
				continue
			}
			c2, err := w.read2(n2.childRef(j))
			if err != nil {
				return nil, err
			}
			tasks = append(tasks, joinTask{n1, c2})
		}
	case n2.isLeaf():
		m2 := n2.mbr()
		for i := range n1.entries {
			e1 := &n1.entries[i]
			if !w.e.prune(e1.Rect, m2) {
				continue
			}
			c1, err := w.read1(n1.childRef(i))
			if err != nil {
				return nil, err
			}
			tasks = append(tasks, joinTask{c1, n2})
		}
	default:
		left := make([]*node, len(n1.entries))
		right := make([]*node, len(n2.entries))
		err := w.match(n1, n2, w.e.prune, func(i, j int) error {
			var err error
			if left[i] == nil {
				if left[i], err = w.read1(n1.childRef(i)); err != nil {
					return err
				}
			}
			if right[j] == nil {
				if right[j], err = w.read2(n2.childRef(j)); err != nil {
					return err
				}
			}
			tasks = append(tasks, joinTask{left[i], right[j]})
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return tasks, nil
}

// match enumerates the entry pairs of two nodes that pass test and
// hands their indexes to found. Under the Intersecting contract the
// pairs come from a plane sweep that only visits x-overlapping
// combinations inside the nodes' common region — unless this pair is
// too small, or the caller's density estimate says most combinations
// x-overlap anyway, in which case the plain nested loop is cheaper
// than the sweep's sort (see useSweep); otherwise every combination
// is tested.
// useSweep is the per-node-pair strategy decision: sweep when the
// estimated fan-out makes its setup worthwhile. The nested loop tests
// all m·n combinations; the sweep tests only the x-overlapping ones —
// an expected density·m·n of them — but first clips, filters, and
// sorts both sides (≈ (m+n)·log₂(m+n) comparison-sized steps). Tiny
// pairs never amortise that, and a density near one means the sweep
// tests almost everything anyway and the sort is pure overhead.
func (w *joinWorker) useSweep(m, n int) bool {
	pairs := m * n
	if pairs < sweepMinPairs {
		return false
	}
	d := w.e.opts.SweepDensity
	if d <= 0 {
		return true
	}
	if d >= 1 {
		return false
	}
	setup := float64(m+n) * math.Log2(float64(m+n))
	return setup < (1-d)*float64(pairs)
}

func (w *joinWorker) match(n1, n2 *node, test func(a, b geom.Rect) bool, found func(i, j int) error) error {
	if w.e.opts.Intersecting {
		if w.useSweep(len(n1.entries), len(n2.entries)) {
			w.stats.SweepPairs++
			return w.matchSweep(n1, n2, test, found)
		}
		w.stats.NestedPairs++
	}
	for i := range n1.entries {
		for j := range n2.entries {
			if !test(n1.entries[i].Rect, n2.entries[j].Rect) {
				continue
			}
			if err := found(i, j); err != nil {
				return err
			}
		}
	}
	return nil
}

// matchSweep is the forward plane sweep: both nodes' entries are
// restricted to the (closed, possibly degenerate) intersection of the
// node MBRs — a qualifying pair shares a point, and a shared point of
// two entries lies inside both node rectangles — then sorted by low x
// and swept. At each step the unprocessed entry with the smallest low
// edge is paired with every opposite entry whose low edge lies inside
// its x extent; each x-overlapping pair is therefore tested exactly
// once (when its earlier-opening member is processed) and pairs that
// merely touch are kept (meet is a point-sharing relation).
func (w *joinWorker) matchSweep(n1, n2 *node, test func(a, b geom.Rect) bool, found func(i, j int) error) error {
	clip := clipRect(n1.mbr(), n2.mbr())
	if clip.Min.X > clip.Max.X || clip.Min.Y > clip.Max.Y {
		return nil
	}
	s1 := sweepOrder(n1, clip)
	s2 := sweepOrder(n2, clip)
	for i, j := 0, 0; i < len(s1) && j < len(s2); {
		a := &n1.entries[s1[i]]
		b := &n2.entries[s2[j]]
		if a.Rect.Min.X <= b.Rect.Min.X {
			for k := j; k < len(s2); k++ {
				bk := &n2.entries[s2[k]]
				if bk.Rect.Min.X > a.Rect.Max.X {
					break
				}
				if test(a.Rect, bk.Rect) {
					if err := found(s1[i], s2[k]); err != nil {
						return err
					}
				}
			}
			i++
		} else {
			for k := i; k < len(s1); k++ {
				ak := &n1.entries[s1[k]]
				if ak.Rect.Min.X > b.Rect.Max.X {
					break
				}
				if test(ak.Rect, b.Rect) {
					if err := found(s1[k], s2[j]); err != nil {
						return err
					}
				}
			}
			j++
		}
	}
	return nil
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

// sweepOrder returns the indexes of the entries touching the clip
// region, sorted by low x — the node's sweep order.
func sweepOrder(n *node, clip geom.Rect) []int {
	ord := make([]int, 0, len(n.entries))
	for i := range n.entries {
		if n.entries[i].Rect.Intersects(clip) {
			ord = append(ord, i)
		}
	}
	sort.Slice(ord, func(a, b int) bool {
		return n.entries[ord[a]].Rect.Min.X < n.entries[ord[b]].Rect.Min.X
	})
	return ord
}
