package rtree

import (
	"cmp"
	"context"
	"errors"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"mbrtopo/internal/geom"
	"mbrtopo/internal/mbr"
)

// This file is the spatial-join engine: a synchronized traversal of
// two R-/R*-trees (the classic tree-matching join of Brinkhoff,
// Kriegel and Seeger, which the paper's multi-step line of work builds
// on), with three optimisations over the textbook nested loop:
//
//   - every child page is read at most once per node pair (the nested
//     loop re-reads the right child for every matching left entry);
//   - when the sign masks of the accept test say that
//     qualifying pairs always share a point (every topological relation
//     set except ones containing disjoint), entries are matched by a
//     forward plane sweep over their low-x order, so only x-overlapping
//     combinations are tested. Between leaves the masks also say which
//     low-x orders can qualify — an inside entry never opens before its
//     partner — so the sweep skips the scans that cannot, and each side
//     keeps only the entries whose corners can reach a partner inside
//     the other node's MBR. An arena node version keeps its order and
//     its MBR beside it (nodeSweep), so a node pair costs a filter of two
//     kept orders into the worker's scratch — no sort, no allocation;
//   - the top-level node pairs (and, when that fans out too little,
//     the second-level pairs) are distributed over a bounded worker
//     pool. All workers traverse the same two snapshots, and
//     their per-worker TraversalStats are merged at the end, so the
//     returned counts are exactly the serial engine's.
//
// Both pair tests are compiled configuration sets the engine calls
// directly (mbr.Test.Admits): a tested pair costs a few comparisons.
//
// The join loads one published snapshot of each tree for its whole
// duration, so it runs in parallel with other readers and never blocks
// (or is blocked by) writers; self-joins see a single consistent
// version.

// JoinOptions tune JoinCtx.
type JoinOptions struct {
	// Workers bounds the traversal worker pool. 0 (or negative) uses
	// GOMAXPROCS; 1 runs the whole join on the calling goroutine.
	Workers int
}

// touching is the sweep of node pairs: a pair of covering rectangles
// holds a point-sharing leaf pair only if the rectangles share it too.
var touching, _ = mbr.DominationFor(mbr.Touching()).Sweep()

// sweepMinPairs is the entry-count product under which the sweep's
// window-and-order set-up cannot pay for itself.
const sweepMinPairs = 16

// joinFanout is the task-to-worker ratio under which the coordinator
// expands a second tree level before fanning out, so a small top level
// (large page size, small trees) still feeds every worker.
const joinFanout = 4

// errJoinStop signals that emit asked the join to stop; it never
// escapes this file.
var errJoinStop = errors.New("rtree: join stopped by emit")

// JoinCtx is the spatial join engine: a synchronised traversal of both
// trees with context cancellation (checked before every page read),
// plane-sweep matching, and a worker pool (see JoinOptions). prune is
// the test of pairs of covering rectangles (node-node, node-leafMBR);
// a pair it rejects has its subtrees skipped. accept is the test of
// leaf entry rectangle pairs; the pairs it admits are passed to emit as
// two Hits (return false to stop). When accept's sign masks admit only
// pairs that share a point on both axes (mbr.Domination.Sweep), node
// and leaf entries are matched by the plane sweep, node pairs whose
// rectangles share no point are never expanded, and leaf pairs are only
// tested in the low-x orders and corner windows the masks allow;
// otherwise every combination under a node pair is tested. Self-joins
// (t1 == t2) are supported. emit is never called concurrently,
// regardless of the worker count, so caller-side closures need no
// locking; the order in which pairs are emitted is unspecified (a
// serial join, Workers 1, repeats the same order over the same two tree
// versions).
//
// The returned TraversalStats counts the pages this join read across
// both trees — exact per-operation accounting, independent of any
// concurrent queries on either index. On cancellation JoinCtx returns
// ctx.Err() with the stats accumulated so far; a join stopped by emit
// returns nil like a completed one.
func JoinCtx(ctx context.Context, t1, t2 *Tree, prune, accept mbr.Test, emit func(a, b Hit) bool, opts JoinOptions) (TraversalStats, error) {
	e := &joinEngine{prune: prune, accept: accept, emit: emit}
	if leaf, ok := accept.Domination().Sweep(); ok {
		e.leaf, e.node = &leaf, &touching
	}
	return e.run(ctx, t1, t2, opts.Workers)
}

// run is JoinCtx on an engine whose tests, emit and sweeps are set.
func (e *joinEngine) run(ctx context.Context, t1, t2 *Tree, workers int) (TraversalStats, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// Each side loads its published snapshot, exactly like a search
	// does, so the join runs in parallel with writers.
	root1 := t1.cur.Load().root
	root2 := root1
	if t2 != t1 {
		root2 = t2.cur.Load().root
	}
	jctx, cancel := context.WithCancel(ctx)
	defer cancel()
	e.src1, e.src2 = t1.st, t2.st
	e.ctx, e.cancel = jctx, cancel
	coord := &joinWorker{e: e}
	r1, err := coord.read1(root1)
	if err != nil {
		return coord.stats, e.finish(err)
	}
	r2, err := coord.read2(root2)
	if err != nil {
		return coord.stats, e.finish(err)
	}
	if m1, m2 := r1.mbr(), r2.mbr(); len(r1.entries) == 0 || len(r2.entries) == 0 || !e.prune.Admits(&m1, &m2) {
		return coord.stats, nil
	}
	if workers == 1 {
		return coord.stats, e.finish(coord.join(r1, r2))
	}
	return e.parallel(coord, r1, r2, workers)
}

// joinEngine is the state shared by all workers of one join.
type joinEngine struct {
	src1, src2    *arena
	prune, accept mbr.Test
	emit          func(a, b Hit) bool
	// leaf and node sweep leaf-leaf and node pairs; nil runs the nested
	// matcher.
	leaf, node *mbr.Sweep

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

	// scratch[d] belongs to the node pair whose levels sum to d. That sum
	// strictly falls along a descent, so whatever runs under a pair —
	// found recursing into a child pair included — works in other slots
	// and a warm join allocates nothing per node pair.
	scratch []pairScratch
}

// pairScratch is what matching one node pair needs besides the nodes:
// the two sweep orders, and the children read so far.
type pairScratch struct {
	ord1, ord2  []int32
	left, right []*node
}

func (w *joinWorker) scratchFor(n1, n2 *node) *pairScratch {
	d := n1.level + n2.level
	if d >= len(w.scratch) {
		// Only ever the outermost pair of a descent: no pair above it
		// holds a pointer into the slice being replaced.
		w.scratch = append(w.scratch, make([]pairScratch, d+1-len(w.scratch))...)
	}
	return &w.scratch[d]
}

// read1/read2 charge a read to each tree's own arena and to this
// worker's stats. Cancellation is checked before every read, so an
// abandoned join stops within one node access.
func (w *joinWorker) read1(n *node) (*node, error) { return w.read(w.e.src1, n) }
func (w *joinWorker) read2(n *node) (*node, error) { return w.read(w.e.src2, n) }

func (w *joinWorker) read(src *arena, n *node) (*node, error) {
	if err := w.e.ctx.Err(); err != nil {
		return nil, err
	}
	src.get(n)
	w.stats.NodesVisited++
	w.stats.NodeAccesses += uint64(n.cost)
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
	if n1.isLeaf() && n2.isLeaf() {
		tests, err := w.match(n1, n2, w.e.leaf, &w.e.accept, func(i, j int) error {
			return w.emitPair(n1, i, n2, j)
		})
		w.stats.PairTests += tests
		return err
	}
	return w.descend(n1, n2, w.join)
}

// expand returns the child pairs of one node pair that survive pruning,
// charging the reads exactly as the serial recursion does. A leaf-leaf
// pair is returned as it is.
func (w *joinWorker) expand(n1, n2 *node) ([]joinTask, error) {
	if n1.isLeaf() && n2.isLeaf() {
		return []joinTask{{n1, n2}}, nil
	}
	var tasks []joinTask
	err := w.descend(n1, n2, func(c1, c2 *node) error {
		tasks = append(tasks, joinTask{c1, c2})
		return nil
	})
	return tasks, err
}

// descend hands next the child pairs of a node pair (not both leaves)
// that survive pruning. Every child is read at most once for this node
// pair, however many partners its entry matches — lazily, into the
// pair's scratch; a height mismatch descends the taller side only,
// against the MBR of the leaf.
func (w *joinWorker) descend(n1, n2 *node, next func(c1, c2 *node) error) error {
	switch {
	case n1.isLeaf():
		m1, _ := n1.swept()
		for j := range n2.entries {
			if !w.e.prune.Admits(&m1, &n2.entries[j].Rect) {
				continue
			}
			c2, err := w.read2(n2.entries[j].Child)
			if err != nil {
				return err
			}
			if err := next(n1, c2); err != nil {
				return err
			}
		}
		return nil
	case n2.isLeaf():
		m2, _ := n2.swept()
		for i := range n1.entries {
			if !w.e.prune.Admits(&n1.entries[i].Rect, &m2) {
				continue
			}
			c1, err := w.read1(n1.entries[i].Child)
			if err != nil {
				return err
			}
			if err := next(c1, n2); err != nil {
				return err
			}
		}
		return nil
	}
	sc := w.scratchFor(n1, n2)
	sc.left = resetNodes(sc.left, len(n1.entries))
	sc.right = resetNodes(sc.right, len(n2.entries))
	left, right := sc.left, sc.right
	_, err := w.match(n1, n2, w.e.node, &w.e.prune, func(i, j int) error {
		var err error
		if left[i] == nil {
			if left[i], err = w.read1(n1.entries[i].Child); err != nil {
				return err
			}
		}
		if right[j] == nil {
			if right[j], err = w.read2(n2.entries[j].Child); err != nil {
				return err
			}
		}
		return next(left[i], right[j])
	})
	return err
}

// resetNodes returns buf as k nil slots, grown if it has to be.
func resetNodes(buf []*node, k int) []*node {
	if cap(buf) < k {
		return make([]*node, k)
	}
	buf = buf[:k]
	clear(buf)
	return buf
}

// match enumerates the entry pairs of two nodes that pass test, hands
// their indexes to found, and says how many pairs it tested. With a
// sweep the pairs come from the plane sweep — unless the pair is so
// small (sweepMinPairs) that the plain nested loop is cheaper than
// bringing both sides into low-x order inside their windows; otherwise
// every combination is tested.
func (w *joinWorker) match(n1, n2 *node, sweep *mbr.Sweep, test *mbr.Test, found func(i, j int) error) (uint64, error) {
	if sweep != nil {
		if len(n1.entries)*len(n2.entries) >= sweepMinPairs {
			w.stats.SweepPairs++
			return w.matchSweep(n1, n2, sweep, test, found)
		}
		w.stats.NestedPairs++
	}
	e1, e2 := n1.entries, n2.entries
	for i := range e1 {
		for j := range e2 {
			if !test.Admits(&e1[i].Rect, &e2[j].Rect) {
				continue
			}
			if err := found(i, j); err != nil {
				return uint64(i*len(e2) + j + 1), err
			}
		}
	}
	return uint64(len(e1) * len(e2)), nil
}

// matchSweep is the forward plane sweep. Each side keeps the entries
// whose corners lie in the sweep's window against the other node's MBR
// — for a point-sharing sweep that is every entry touching the
// intersection of the node MBRs, for an inside sweep every left entry
// within the right node's MBR — and the kept entries are swept in low-x
// order. At each step the unprocessed entry with the smallest low edge
// is paired with the opposite entries whose low edge lies inside its x
// extent; each x-overlapping pair is therefore met exactly once (when
// its earlier-opening member is processed, the left one on a tie), and
// pairs that merely touch are kept (meet is a point-sharing relation).
// A left entry processed meets partners opening level with it or later,
// a right one partners opening strictly later: the scans an admitted
// pair cannot come from are skipped, and without Earlier a left entry
// meets only the partners level with it.
func (w *joinWorker) matchSweep(n1, n2 *node, sweep *mbr.Sweep, test *mbr.Test, found func(i, j int) error) (tests uint64, err error) {
	m1, kept1 := n1.swept()
	m2, kept2 := n2.swept()
	if !m1.Intersects(m2) {
		return 0, nil
	}
	sc := w.scratchFor(n1, n2)
	sc.ord1 = sweepOrder(sc.ord1[:0], n1, kept1, sweep.Left(m2))
	sc.ord2 = sweepOrder(sc.ord2[:0], n2, kept2, sweep.Right(m1))
	s1, s2 := sc.ord1, sc.ord2
	e1, e2 := n1.entries, n2.entries
	leftScans := sweep.Earlier || sweep.Level
	for i, j := 0, 0; i < len(s1) && j < len(s2); {
		a, b := &e1[s1[i]].Rect, &e2[s2[j]].Rect
		if a.Min.X <= b.Min.X {
			if leftScans {
				reach := a.Max.X
				if !sweep.Earlier {
					reach = a.Min.X
				}
				for k := j; k < len(s2); k++ {
					r := &e2[s2[k]].Rect
					if r.Min.X > reach {
						break
					}
					tests++
					if test.Admits(a, r) {
						if err := found(int(s1[i]), int(s2[k])); err != nil {
							return tests, err
						}
					}
				}
			}
			i++
		} else {
			if sweep.Later {
				for k := i; k < len(s1); k++ {
					r := &e1[s1[k]].Rect
					if r.Min.X > b.Max.X {
						break
					}
					tests++
					if test.Admits(r, b) {
						if err := found(int(s1[k]), int(s2[j])); err != nil {
							return tests, err
						}
					}
				}
			}
			j++
		}
	}
	return tests, nil
}

// nodeSweep is the sweep side-car of a node version: what every join
// that meets the version needs of it and no entry says by itself. It
// lives by the rule of the leaf text (text.go): computed by the first
// join that sweeps the version, immutable once published, so
// copy-on-write is its whole invalidation story — a mutation installs a
// new version, which starts without one. The entries stay in their
// physical order: answers, and limit-bounded traversals, depend on it.
type nodeSweep struct {
	mbr geom.Rect // tight MBR of the entries
	ord []int32   // entry indexes by low x, ties by index
}

// byLowX is the sweep order of a node's entries.
func (n *node) byLowX(a, b int32) int {
	if c := cmp.Compare(n.entries[a].Rect.Min.X, n.entries[b].Rect.Min.X); c != 0 {
		return c
	}
	return cmp.Compare(a, b)
}

// swept returns the node's tight MBR and its kept sweep order —
// computed here the first time. Two joins meeting a fresh version
// together both compute; one result is published.
func (n *node) swept() (geom.Rect, []int32) {
	k := n.sweep.Load()
	if k == nil {
		k = &nodeSweep{mbr: n.mbr(), ord: make([]int32, len(n.entries))}
		for i := range k.ord {
			k.ord[i] = int32(i)
		}
		slices.SortFunc(k.ord, n.byLowX)
		if !n.sweep.CompareAndSwap(nil, k) {
			k = n.sweep.Load()
		}
	}
	return k.mbr, k.ord
}

// sweepOrder appends to ord the indexes of the entries whose corners
// lie in win, by low x: a filter of the kept order, which preserves it
// and ends where the low edges pass the window.
func sweepOrder(ord []int32, n *node, kept []int32, win mbr.Window) []int32 {
	ord = slices.Grow(ord, len(n.entries))
	for _, i := range kept {
		r := &n.entries[i].Rect
		if r.Min.X > win.Min.Max.X {
			break
		}
		if win.Fits(*r) {
			ord = append(ord, i)
		}
	}
	return ord
}
