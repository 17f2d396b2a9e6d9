// Package watch implements live geofence subscriptions: continuous
// topological queries (a reference rectangle plus a relation set, the
// same shape as a window query) that are notified when index mutations
// change their answer.
//
// Membership is per registration, as a window query's answer is: one
// (oid, rect) pair per stored entry. An inserted rectangle the
// subscription's Table 1 candidate set admits against its reference is
// an enter; a deleted one it admits is an exit. Nothing else is sent,
// and the table keeps no copy of the index: a record is classified by
// itself.
//
// Subscriptions live in a Table attached to one served index. The
// write path publishes every applied commit batch, and Publish
// evaluates it and fans its events out to the subscribers' buffered
// channels before it returns. Two layers keep that cheap:
//
//  1. An R-tree over the subscription reference rectangles reduces a
//     record's rectangle to the subscriptions it touches (subscriptions
//     whose relation set admits disjoint see every record — a gap
//     configuration matches rectangles anywhere).
//  2. Survivors run the filter step's compiled test (mbr.Test.Admits)
//     on the record's rectangle against their reference.
//
// Delivery is at-least-once per generation: a subscriber that attaches
// after a commit reached the tree but before it was published may
// receive events its own baseline query already reflects. Events are
// delivered in apply order, so replaying enter/exit as multiset
// operations on (oid, rect) converges to the true answer.
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
	// Enter: an inserted rectangle the subscription admits.
	Enter EventType = iota + 1
	// Exit: a deleted rectangle the subscription admits.
	Exit
)

func (t EventType) String() string {
	switch t {
	case Enter:
		return "enter"
	case Exit:
		return "exit"
	}
	return "unknown"
}

// Event is one subscription notification.
type Event struct {
	Type EventType
	OID  uint64
	// Rect is the inserted or deleted rectangle.
	Rect geom.Rect
	// Gen numbers the commit batch that produced the event; all events
	// of one batch share it.
	Gen uint64
	// Rel is the MBR-level topological relation of Rect to the
	// reference.
	Rel topo.Relation
}

// Counters is a snapshot of the table's work accounting.
type Counters struct {
	// Subscriptions currently registered.
	Subscriptions int
	// Evaluated counts (subscription, record) tests performed.
	Evaluated uint64
	// Pruned counts tests avoided by the subscription R-tree
	// (reference nowhere near the record's rectangle).
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
	id  uint64
	ref geom.Rect
	// test is the compiled Table 1 candidate set of the relation set:
	// membership on the wire is exactly the filter step of a window
	// query with the same request.
	test mbr.Test
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

// SubIndex is the R-tree interface the table needs over subscription
// reference rectangles (satisfied by the index package's trees).
type SubIndex interface {
	Insert(r geom.Rect, oid uint64) error
	Delete(r geom.Rect, oid uint64) error
	SearchHits(ctx context.Context, nodePred, leafPred func(geom.Rect) bool, emit func(rtree.Hit) bool) (rtree.TraversalStats, error)
}

// Table holds the subscriptions of one index. It is active while it
// has subscriptions; while it has none, the write path's Publish is a
// single atomic load.
type Table struct {
	observe func(time.Duration)

	active atomic.Bool

	evaluated, pruned        atomic.Uint64
	events, dropped, batches atomic.Uint64

	mu      sync.Mutex
	closed  bool
	nextID  uint64
	gen     uint64 // batches published
	subs    map[uint64]*Subscription
	gapSubs map[uint64]*Subscription
	subIdx  SubIndex
}

// NewTable creates an empty subscription table. scan is unused — the
// table never reads the index — and may be nil; it stays only so that
// existing callers compile. observe, when non-nil, receives how long
// each published batch took to evaluate and deliver. subIdx indexes
// subscription references; it must be empty.
func NewTable(scan func(emit func(geom.Rect, uint64) bool) error, subIdx SubIndex, observe func(time.Duration)) *Table {
	return &Table{
		observe: observe,
		subs:    make(map[uint64]*Subscription),
		gapSubs: make(map[uint64]*Subscription),
		subIdx:  subIdx,
	}
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

// Subscribe registers a continuous query. It reads nothing of the
// index, so it needs no lock of the write path: it orders against
// Publish and Reset through the table's own lock, which makes StartGen
// exact. buffer sizes the event channel (<=0 → DefaultBuffer); a
// subscriber that falls that far behind is terminated with reason
// "lagged".
func (t *Table) Subscribe(ref geom.Rect, rels topo.Set, buffer int) (*Subscription, error) {
	if buffer <= 0 {
		buffer = DefaultBuffer
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil, ErrClosed
	}
	t.nextID++
	cfgs := mbr.CandidatesSet(rels)
	sub := &Subscription{
		id:       t.nextID,
		ref:      ref,
		test:     mbr.Compile(cfgs),
		gap:      !cfgs.SubsetOf(mbr.Touching()),
		startGen: t.gen,
		ch:       make(chan Event, buffer),
	}
	if sub.gap {
		t.gapSubs[sub.id] = sub
	} else if err := t.subIdx.Insert(ref, sub.id); err != nil {
		return nil, err
	}
	t.subs[sub.id] = sub
	t.active.Store(true)
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
	if len(t.subs) == 0 {
		t.active.Store(false)
	}
}

// Publish evaluates one applied commit batch and delivers its events
// before it returns; it keeps no reference to muts. Callers invoke it
// under the lock that serialised the index mutation, so batch order
// matches apply order. It never blocks on a subscriber: one whose
// buffer is full is ended instead.
func (t *Table) Publish(muts ...Mutation) {
	if len(muts) == 0 || !t.active.Load() {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.subs) == 0 {
		return
	}
	start := time.Now()
	t.gen++
	t.batches.Add(1)
	t.runBatchLocked(muts)
	if t.observe != nil {
		t.observe(time.Since(start))
	}
}

// Sync does nothing: Publish has delivered by the time it returns. It
// stays for the benchmark harness, which still calls it.
func (t *Table) Sync() {}

// Close ends every subscription with the given reason (handlers
// surface it as the terminal stream line) and rejects future
// subscribes. Safe to call repeatedly.
func (t *Table) Close(reason string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return
	}
	t.endAllLocked(reason)
	t.closed = true
}

// Reset ends every subscription with the given reason, as Close does,
// but keeps the table open. A follower resets, under its writers' lock,
// when a bootstrap replaces the index's contents: no commit batch
// describes that change, so its subscribers must resubscribe against
// the new baseline.
func (t *Table) Reset(reason string) {
	t.mu.Lock()
	t.endAllLocked(reason)
	t.mu.Unlock()
}

// endAllLocked ends every subscription. Caller holds t.mu.
func (t *Table) endAllLocked(reason string) {
	for _, sub := range t.subs {
		t.endLocked(sub, reason)
	}
}

// runBatchLocked tests each record of a batch against the candidate
// subscriptions: every gap subscription, and those whose reference the
// record's rectangle touches (closed intersection — boundary contact
// can establish meet). Caller holds t.mu.
func (t *Table) runBatchLocked(muts []Mutation) {
	subCount := uint64(len(t.subs))
	pending := make(map[*Subscription][]Event)
	for _, m := range muts {
		typ := Enter
		if m.Op == OpDelete {
			typ = Exit
		}
		var tested uint64
		test := func(sub *Subscription) {
			tested++
			if sub.test.Admits(&m.Rect, &sub.ref) {
				pending[sub] = append(pending[sub], Event{Type: typ, OID: m.OID, Rect: m.Rect, Rel: mbr.ConfigOf(m.Rect, sub.ref).Topo()})
			}
		}
		for _, sub := range t.gapSubs {
			test(sub)
		}
		pred := func(nr geom.Rect) bool { return nr.Intersects(m.Rect) }
		_, _ = t.subIdx.SearchHits(context.Background(), pred, pred, func(h rtree.Hit) bool {
			if sub, ok := t.subs[h.OID]; ok {
				test(sub)
			}
			return true
		})
		t.evaluated.Add(tested)
		t.pruned.Add(subCount - tested)
	}
	for sub, evs := range pending {
		t.deliverLocked(sub, evs)
	}
}

// deliverLocked fans one subscription's batch events out without ever
// blocking: a full buffer terminates the subscription instead of
// stalling the writer. Caller holds t.mu.
func (t *Table) deliverLocked(sub *Subscription, evs []Event) {
	for i, ev := range evs {
		ev.Gen = t.gen
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
