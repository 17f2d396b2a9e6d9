// Package watch implements live geofence subscriptions: continuous
// topological queries (a reference rectangle plus a relation set, the
// same shape as a window query) that are notified when index mutations
// change their answer.
//
// Subscriptions live in a Table attached to one served index. The
// write path publishes every applied commit batch; a single notifier
// goroutine evaluates one pass per batch and fans events out to the
// subscribers' buffered channels. Two layers keep a pass cheap:
//
//  1. An R-tree over the subscription reference rectangles reduces the
//     touched object's rectangles to the subscriptions they touch
//     (subscriptions whose relation set admits disjoint see every
//     mutation — a gap configuration matches objects anywhere).
//  2. Survivors re-run only the filter step — a configuration test per
//     rectangle — against the subscription's admissible set.
//
// Delivery is at-least-once per generation: a subscriber that attaches
// while a commit is still queued may receive events its own baseline
// query already reflects. Events for one object are always delivered
// in apply order, so replaying enter/exit as set operations converges
// to the true membership.
package watch

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"mbrtopo/internal/geom"
	"mbrtopo/internal/mbr"
	"mbrtopo/internal/rtree"
	"mbrtopo/internal/topo"
	"mbrtopo/internal/wal"
)

// DefaultBuffer is the per-subscription event buffer when the
// subscriber does not choose one.
const DefaultBuffer = 256

// ErrClosed is returned by Subscribe after the table has been closed.
var ErrClosed = errors.New("watch: table closed")

// Mutation is one applied index change — the very record the write
// path logs, so a commit is published without being converted. The
// write path publishes them in apply order, batched per commit.
type Mutation = wal.Record

// The mutation kinds the write path publishes.
const (
	OpInsert = wal.OpInsert
	OpDelete = wal.OpDelete
)

// EventType classifies a notification.
type EventType uint8

// The event types.
const (
	// Enter: the object newly satisfies the subscription.
	Enter EventType = iota + 1
	// Exit: the object no longer satisfies the subscription.
	Exit
	// Change: the object still satisfies it under a different
	// MBR-level relation.
	Change
)

func (t EventType) String() string {
	switch t {
	case Enter:
		return "enter"
	case Exit:
		return "exit"
	case Change:
		return "change"
	}
	return "unknown"
}

// Event is one subscription notification.
type Event struct {
	Type EventType
	OID  uint64
	// Rect is the object's rectangle after the commit (its last known
	// rectangle for deletions).
	Rect geom.Rect
	// Gen numbers the commit batch that produced the event; all events
	// of one batch share it.
	Gen uint64
	// Old and New are the MBR-level topological relations of the object
	// to the reference before and after the batch; HasOld/HasNew report
	// whether the object existed on that side.
	Old, New       topo.Relation
	HasOld, HasNew bool
}

// Counters is a snapshot of the table's work accounting.
type Counters struct {
	// Subscriptions currently registered.
	Subscriptions int
	// Evaluated counts full (subscription, object) evaluations.
	Evaluated uint64
	// Pruned counts evaluations avoided by the subscription R-tree
	// (reference nowhere near the object).
	Pruned uint64
	// Events delivered to subscriber buffers.
	Events uint64
	// Dropped counts events lost when a lagging subscription was
	// terminated.
	Dropped uint64
	// Batches evaluated.
	Batches uint64
}

// Subscription is one registered continuous query.
type Subscription struct {
	id   uint64
	ref  geom.Rect
	rels topo.Set
	// cfgs is the admissible configuration set (the Table 1 candidates
	// of the relation set): membership on the wire is exactly the
	// filter step of a window query with the same request.
	cfgs mbr.ConfigSet
	// gap marks subscriptions whose admissible set leaves the touching
	// configurations — their relation set admits disjoint, so every
	// mutation is a candidate and the reference R-tree cannot help.
	gap      bool
	startGen uint64

	ch chan Event

	mu     sync.Mutex
	reason string
}

// ID identifies the subscription within its table.
func (s *Subscription) ID() uint64 { return s.id }

// StartGen is the last generation already reflected in the index when
// the subscription attached; events carry strictly larger generations.
func (s *Subscription) StartGen() uint64 { return s.startGen }

// Events returns the notification channel. It is closed when the
// subscription ends — by Unsubscribe, by lagging, or by the table
// closing — after which EndReason reports why.
func (s *Subscription) Events() <-chan Event { return s.ch }

// EndReason reports why the subscription ended ("" while live).
func (s *Subscription) EndReason() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.reason
}

// classify reports whether any of the object's rectangles is in the
// admissible configuration set — the same test as the window-query
// filter step — plus the MBR-level relation to report: the first
// admissible rectangle's when a member, the first rectangle's
// otherwise. ok is false when the object has no rectangles.
func (s *Subscription) classify(rects []geom.Rect) (member bool, rel topo.Relation, ok bool) {
	if len(rects) == 0 {
		return false, 0, false
	}
	for _, r := range rects {
		c := mbr.ConfigOf(r, s.ref)
		if s.cfgs.Has(c) {
			return true, c.Topo(), true
		}
	}
	return false, mbr.ConfigOf(rects[0], s.ref).Topo(), true
}

// eventFor evaluates one object's transition against the subscription.
func (s *Subscription) eventFor(oid uint64, before, after []geom.Rect) (Event, bool) {
	mOld, relOld, hasOld := s.classify(before)
	mNew, relNew, hasNew := s.classify(after)
	ev := Event{OID: oid, Old: relOld, New: relNew, HasOld: hasOld, HasNew: hasNew}
	if len(after) > 0 {
		ev.Rect = after[0]
	} else if len(before) > 0 {
		ev.Rect = before[0]
	}
	switch {
	case mOld && mNew:
		if relOld == relNew {
			return Event{}, false
		}
		ev.Type = Change
	case mOld:
		ev.Type = Exit
	case mNew:
		ev.Type = Enter
	default:
		return Event{}, false
	}
	return ev, true
}

// SubIndex is the R-tree interface the table needs over subscription
// reference rectangles (satisfied by the index package's trees).
type SubIndex interface {
	Insert(r geom.Rect, oid uint64) error
	Delete(r geom.Rect, oid uint64) error
	SearchHits(ctx context.Context, nodePred, leafPred func(geom.Rect) bool, emit func(rtree.Hit) bool) (rtree.TraversalStats, error)
}

// Table holds the subscriptions of one index and mirrors its contents
// (the shadow) so each commit batch can be diffed against the previous
// state. The shadow exists only while subscriptions do: the first
// Subscribe seeds it from a full index scan, the last departure drops
// it, and the write path's Publish is a single atomic load while the
// table is inactive.
type Table struct {
	scan    func(emit func(geom.Rect, uint64) bool) error
	observe func(time.Duration)

	active atomic.Bool

	evaluated, pruned        atomic.Uint64
	events, dropped, batches atomic.Uint64

	mu      sync.Mutex
	cond    *sync.Cond
	closed  bool
	started bool
	nextID  uint64
	gen     uint64 // batches published
	doneGen uint64 // batches evaluated and fanned out
	subs    map[uint64]*Subscription
	gapSubs map[uint64]*Subscription
	subIdx  SubIndex
	shadow  map[uint64][]geom.Rect
	queue   []commitBatch
}

type commitBatch struct {
	gen  uint64
	muts []Mutation
	at   time.Time
}

// NewTable creates an empty subscription table. scan must stream the
// index's current contents (duplicate (rect, oid) emissions, as from
// an R+-tree's duplicated leaf entries, are deduplicated). observe,
// when non-nil, receives each batch's commit-to-notification latency.
// subIdx indexes subscription references; it must be empty.
func NewTable(scan func(emit func(geom.Rect, uint64) bool) error, subIdx SubIndex, observe func(time.Duration)) *Table {
	t := &Table{
		scan:    scan,
		observe: observe,
		subs:    make(map[uint64]*Subscription),
		gapSubs: make(map[uint64]*Subscription),
		subIdx:  subIdx,
	}
	t.cond = sync.NewCond(&t.mu)
	return t
}

// Counters snapshots the work accounting.
func (t *Table) Counters() Counters {
	t.mu.Lock()
	n := len(t.subs)
	t.mu.Unlock()
	return Counters{
		Subscriptions: n,
		Evaluated:     t.evaluated.Load(),
		Pruned:        t.pruned.Load(),
		Events:        t.events.Load(),
		Dropped:       t.dropped.Load(),
		Batches:       t.batches.Load(),
	}
}

// Subscribe registers a continuous query. The caller must hold the
// same lock the index's writers hold across apply+Publish: the first
// subscription seeds the shadow from the index scan, and only that
// lock guarantees no commit falls between the scan and the queue.
// buffer sizes the event channel (<=0 → DefaultBuffer); a subscriber
// that falls that far behind is terminated with reason "lagged".
func (t *Table) Subscribe(ref geom.Rect, rels topo.Set, buffer int) (*Subscription, error) {
	if buffer <= 0 {
		buffer = DefaultBuffer
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil, ErrClosed
	}
	if t.shadow == nil {
		type entry struct {
			oid uint64
			r   geom.Rect
		}
		shadow := make(map[uint64][]geom.Rect)
		seen := make(map[entry]bool)
		err := t.scan(func(r geom.Rect, oid uint64) bool {
			e := entry{oid, r}
			if seen[e] {
				return true
			}
			seen[e] = true
			shadow[oid] = append(shadow[oid], r)
			return true
		})
		if err != nil {
			return nil, err
		}
		t.shadow = shadow
		t.active.Store(true)
	}
	if !t.started {
		t.started = true
		go t.notifier()
	}
	t.nextID++
	cfgs := mbr.CandidatesSet(rels)
	sub := &Subscription{
		id:       t.nextID,
		ref:      ref,
		rels:     rels,
		cfgs:     cfgs,
		gap:      !cfgs.SubsetOf(touchingConfigs),
		startGen: t.gen,
		ch:       make(chan Event, buffer),
	}
	if sub.gap {
		t.gapSubs[sub.id] = sub
	} else if err := t.subIdx.Insert(ref, sub.id); err != nil {
		return nil, err
	}
	t.subs[sub.id] = sub
	return sub, nil
}

// Unsubscribe ends a subscription (no-op when already ended).
func (t *Table) Unsubscribe(sub *Subscription) {
	t.mu.Lock()
	t.endLocked(sub, "unsubscribed")
	t.mu.Unlock()
}

// endLocked removes a subscription and closes its channel; the last
// departure deactivates the table so the write path stops paying for
// it. Caller holds t.mu.
func (t *Table) endLocked(sub *Subscription, reason string) {
	if _, ok := t.subs[sub.id]; !ok {
		return
	}
	delete(t.subs, sub.id)
	if sub.gap {
		delete(t.gapSubs, sub.id)
	} else {
		_ = t.subIdx.Delete(sub.ref, sub.id)
	}
	sub.mu.Lock()
	sub.reason = reason
	sub.mu.Unlock()
	close(sub.ch)
	if len(t.subs) == 0 && !t.closed {
		t.shadow = nil
		t.queue = nil
		t.doneGen = t.gen
		t.active.Store(false)
		t.cond.Broadcast()
	}
}

// Publish hands one applied commit batch to the notifier, taking
// ownership of muts. Callers invoke it under the lock that serialised
// the index mutation, so batch order matches apply order; it never
// blocks on delivery.
func (t *Table) Publish(muts ...Mutation) {
	if len(muts) == 0 || !t.active.Load() {
		return
	}
	t.mu.Lock()
	if t.shadow == nil {
		t.mu.Unlock()
		return
	}
	t.gen++
	t.queue = append(t.queue, commitBatch{gen: t.gen, muts: muts, at: time.Now()})
	t.cond.Signal()
	t.mu.Unlock()
}

// Sync blocks until every batch published before the call has been
// evaluated and its events buffered or dropped — a test, benchmark,
// and drain hook; the serving path never calls it.
func (t *Table) Sync() {
	t.mu.Lock()
	target := t.gen
	for t.doneGen < target && !t.closed {
		t.cond.Wait()
	}
	t.mu.Unlock()
}

// Close ends every subscription with the given reason (handlers
// surface it as the terminal stream line), discards pending batches,
// and rejects future subscribes. Callers that want queued events
// delivered first run Sync before Close. Safe to call repeatedly.
func (t *Table) Close(reason string) {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return
	}
	subs := make([]*Subscription, 0, len(t.subs))
	for _, sub := range t.subs {
		subs = append(subs, sub)
	}
	for _, sub := range subs {
		t.endLocked(sub, reason)
	}
	t.closed = true
	t.queue = nil
	t.active.Store(false)
	t.cond.Broadcast()
	t.mu.Unlock()
}

// notifier is the single evaluation goroutine: one pass per commit
// batch, in publish order. It runs under t.mu — evaluation is pure
// in-memory work, and holding the lock makes subscribe/unsubscribe
// atomic with respect to batch boundaries.
func (t *Table) notifier() {
	t.mu.Lock()
	defer t.mu.Unlock()
	for {
		for len(t.queue) == 0 && !t.closed {
			t.cond.Wait()
		}
		if len(t.queue) == 0 && t.closed {
			return
		}
		b := t.queue[0]
		t.queue = t.queue[1:]
		t.runBatchLocked(b)
		// endLocked may have fast-forwarded doneGen while discarding
		// the queue (last subscriber lagged out mid-batch); never move
		// it backwards.
		if b.gen > t.doneGen {
			t.doneGen = b.gen
		}
		t.batches.Add(1)
		if t.observe != nil {
			t.observe(time.Since(b.at))
		}
		t.cond.Broadcast()
	}
}

// delta is one object's coalesced transition within a commit batch.
type delta struct {
	oid           uint64
	before, after []geom.Rect
}

// runBatchLocked coalesces a batch per object, advances the shadow,
// and evaluates the touched objects against the candidate
// subscriptions. Caller holds t.mu.
func (t *Table) runBatchLocked(b commitBatch) {
	if t.shadow == nil || len(t.subs) == 0 {
		return
	}
	idxOf := make(map[uint64]int)
	var deltas []delta
	for _, m := range b.muts {
		if _, seen := idxOf[m.OID]; !seen {
			idxOf[m.OID] = len(deltas)
			deltas = append(deltas, delta{
				oid:    m.OID,
				before: append([]geom.Rect(nil), t.shadow[m.OID]...),
			})
		}
		switch m.Op {
		case OpInsert:
			t.shadow[m.OID] = append(t.shadow[m.OID], m.Rect)
		case OpDelete:
			rs := t.shadow[m.OID]
			for j, r := range rs {
				if r == m.Rect {
					t.shadow[m.OID] = append(rs[:j], rs[j+1:]...)
					break
				}
			}
			if len(t.shadow[m.OID]) == 0 {
				delete(t.shadow, m.OID)
			}
		}
	}
	for i := range deltas {
		deltas[i].after = append([]geom.Rect(nil), t.shadow[deltas[i].oid]...)
	}

	subCount := uint64(len(t.subs))
	pending := make(map[*Subscription][]Event)
	cands := make(map[uint64]*Subscription)
	for _, d := range deltas {
		// Candidates: subscriptions whose reference touches one of the
		// object's rectangles (closed intersection — boundary contact
		// can establish meet), plus every gap subscription.
		clear(cands)
		for id, sub := range t.gapSubs {
			cands[id] = sub
		}
		gather := func(r geom.Rect) {
			pred := func(nr geom.Rect) bool { return nr.Intersects(r) }
			_, _ = t.subIdx.SearchHits(context.Background(), pred, pred, func(h rtree.Hit) bool {
				if sub, ok := t.subs[h.OID]; ok {
					cands[h.OID] = sub
				}
				return true
			})
		}
		for _, r := range d.before {
			gather(r)
		}
		for _, r := range d.after {
			gather(r)
		}
		t.pruned.Add(subCount - uint64(len(cands)))
		for _, sub := range cands {
			t.evaluated.Add(1)
			if ev, ok := sub.eventFor(d.oid, d.before, d.after); ok {
				pending[sub] = append(pending[sub], ev)
			}
		}
	}
	for sub, evs := range pending {
		t.deliverLocked(sub, evs, b.gen)
	}
}

// deliverLocked fans one subscription's batch events out without ever
// blocking: a full buffer terminates the subscription instead of
// stalling the notifier or queueing unboundedly. Caller holds t.mu.
func (t *Table) deliverLocked(sub *Subscription, evs []Event, gen uint64) {
	for i, ev := range evs {
		ev.Gen = gen
		select {
		case sub.ch <- ev:
			t.events.Add(1)
		default:
			t.dropped.Add(uint64(len(evs) - i))
			t.endLocked(sub, "lagged: event buffer full")
			return
		}
	}
}
