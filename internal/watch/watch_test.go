package watch

import (
	"context"
	"math/rand"
	"slices"
	"testing"
	"time"

	"mbrtopo/internal/geom"
	"mbrtopo/internal/index"
	"mbrtopo/internal/mbr"
	"mbrtopo/internal/rtree"
	"mbrtopo/internal/topo"
)

// newTestTable builds an empty table whose scan fails the test: the
// table must classify records by themselves and never read the index.
func newTestTable(t *testing.T) *Table {
	t.Helper()
	subIdx, err := index.NewWithPageSize(index.KindRTree, index.PaperPageSize)
	if err != nil {
		t.Fatal(err)
	}
	scan := func(func(geom.Rect, uint64) bool) error {
		t.Fatal("the table scanned the index")
		return nil
	}
	return NewTable(scan, subIdx, nil)
}

func newTestIndex(t *testing.T) index.Index {
	t.Helper()
	idx, err := index.NewWithPageSize(index.KindRTree, index.PaperPageSize)
	if err != nil {
		t.Fatal(err)
	}
	return idx
}

func mustInsert(t *testing.T, idx index.Index, tab *Table, r geom.Rect, oid uint64) {
	t.Helper()
	if err := idx.Insert(r, oid); err != nil {
		t.Fatal(err)
	}
	tab.Publish(Mutation{Op: OpInsert, OID: oid, Rect: r})
}

func mustDelete(t *testing.T, idx index.Index, tab *Table, r geom.Rect, oid uint64) {
	t.Helper()
	if err := idx.Delete(r, oid); err != nil {
		t.Fatal(err)
	}
	tab.Publish(Mutation{Op: OpDelete, OID: oid, Rect: r})
}

func drain(sub *Subscription) []Event {
	var out []Event
	for {
		select {
		case ev, ok := <-sub.Events():
			if !ok {
				return out
			}
			out = append(out, ev)
		default:
			return out
		}
	}
}

// TestEnterExit walks one object through a subscription's lifecycle:
// a move, a delete and an insert in one commit, is an exit of the old
// rectangle and an enter of the new one, in that order and in one
// generation.
func TestEnterExit(t *testing.T) {
	idx := newTestIndex(t)
	tab := newTestTable(t)
	ref := geom.R(0, 0, 100, 100)
	sub, err := tab.Subscribe(ref, topo.NotDisjoint, 0)
	if err != nil {
		t.Fatal(err)
	}

	move := func(from, to geom.Rect, oid uint64) {
		if err := idx.Delete(from, oid); err != nil {
			t.Fatal(err)
		}
		if err := idx.Insert(to, oid); err != nil {
			t.Fatal(err)
		}
		tab.Publish(
			Mutation{Op: OpDelete, OID: oid, Rect: from},
			Mutation{Op: OpInsert, OID: oid, Rect: to},
		)
	}

	far := geom.R(200, 200, 210, 210)
	inside := geom.R(10, 10, 20, 20)
	overlapping := geom.R(90, 90, 110, 110)

	mustInsert(t, idx, tab, far, 7) // disjoint: no event
	move(far, inside, 7)            // enter (inside)
	move(inside, overlapping, 7)    // exit (inside), enter (overlap)
	mustDelete(t, idx, tab, overlapping, 7)
	tab.Sync()

	evs := drain(sub)
	want := []Event{
		{Type: Enter, OID: 7, Rect: inside, Rel: topo.Inside},
		{Type: Exit, OID: 7, Rect: inside, Rel: topo.Inside},
		{Type: Enter, OID: 7, Rect: overlapping, Rel: topo.Overlap},
		{Type: Exit, OID: 7, Rect: overlapping, Rel: topo.Overlap},
	}
	if len(evs) != len(want) {
		t.Fatalf("expected %d events, got %v", len(want), evs)
	}
	for i, ev := range evs {
		if ev.Gen == 0 {
			t.Fatalf("event %d has no generation: %+v", i, ev)
		}
		want[i].Gen = ev.Gen
		if ev != want[i] {
			t.Fatalf("event %d is %+v, want %+v", i, ev, want[i])
		}
	}
	if !(evs[0].Gen < evs[1].Gen && evs[1].Gen == evs[2].Gen && evs[2].Gen < evs[3].Gen) {
		t.Fatalf("generations: the move's exit and enter must share one, between the others': %v", evs)
	}
	tab.Unsubscribe(sub)
	if _, ok := <-sub.Events(); ok {
		t.Fatal("channel still open after unsubscribe")
	}
	if sub.EndReason() != "unsubscribed" {
		t.Fatalf("end reason %q", sub.EndReason())
	}
}

// TestTwoRegistrations: an object stored under two admitted rectangles
// is two members, as it is two lines of a window query. Deleting one
// is an exit for that rectangle alone, and the index still answers the
// other.
func TestTwoRegistrations(t *testing.T) {
	idx := newTestIndex(t)
	tab := newTestTable(t)
	ref := geom.R(0, 0, 100, 100)
	sub, err := tab.Subscribe(ref, topo.NotDisjoint, 0)
	if err != nil {
		t.Fatal(err)
	}
	a, b := geom.R(10, 10, 20, 20), geom.R(50, 50, 60, 60)
	mustInsert(t, idx, tab, a, 5)
	mustInsert(t, idx, tab, b, 5)
	mustDelete(t, idx, tab, a, 5)
	tab.Sync()

	evs := drain(sub)
	if len(evs) != 3 || evs[0].Type != Enter || evs[0].Rect != a || evs[1].Type != Enter || evs[1].Rect != b ||
		evs[2].Type != Exit || evs[2].Rect != a || evs[2].OID != 5 {
		t.Fatalf("expected enter a, enter b, exit a for oid 5, got %v", evs)
	}
	test := mbr.Compile(mbr.CandidatesSet(topo.NotDisjoint))
	var admitted []geom.Rect
	all := func(geom.Rect) bool { return true }
	if _, err := idx.SearchHits(context.Background(), all, all, func(h rtree.Hit) bool {
		if test.Admits(&h.Rect, &ref) {
			admitted = append(admitted, h.Rect)
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(admitted) != 1 || admitted[0] != b {
		t.Fatalf("after the exit the index admits %v, want only %v", admitted, b)
	}
	tab.Unsubscribe(sub)
}

// TestSubscribeNeverScans: attaching to a table over a populated index
// reads nothing of it, and the subscription still sees the commits
// after it.
func TestSubscribeNeverScans(t *testing.T) {
	idx := newTestIndex(t)
	for oid := uint64(1); oid <= 500; oid++ {
		x := float64(oid % 50)
		if err := idx.Insert(geom.R(x, x, x+5, x+5), oid); err != nil {
			t.Fatal(err)
		}
	}
	tab := newTestTable(t)
	sub, err := tab.Subscribe(geom.R(0, 0, 100, 100), topo.NotDisjoint, 0)
	if err != nil {
		t.Fatal(err)
	}
	mustInsert(t, idx, tab, geom.R(10, 10, 20, 20), 1000)
	tab.Sync()
	if evs := drain(sub); len(evs) != 1 || evs[0].Type != Enter || evs[0].OID != 1000 {
		t.Fatalf("expected one enter for oid 1000, got %v", evs)
	}
	tab.Unsubscribe(sub)
}

// TestDisjointSubscription: relation sets admitting disjoint bypass
// the reference R-tree (every mutation is a candidate) and see objects
// far away from the reference.
func TestDisjointSubscription(t *testing.T) {
	idx := newTestIndex(t)
	tab := newTestTable(t)
	sub, err := tab.Subscribe(geom.R(0, 0, 10, 10), topo.Set(0).Add(topo.Disjoint), 0)
	if err != nil {
		t.Fatal(err)
	}
	mustInsert(t, idx, tab, geom.R(500, 500, 510, 510), 1) // enter (disjoint)
	mustDelete(t, idx, tab, geom.R(500, 500, 510, 510), 1) // exit
	tab.Sync()
	evs := drain(sub)
	if len(evs) != 2 || evs[0].Type != Enter || evs[0].Rel != topo.Disjoint || evs[1].Type != Exit {
		t.Fatalf("unexpected events %v", evs)
	}
	tab.Unsubscribe(sub)
}

// TestPreexistingObjectExits: an object stored before the subscription
// produces no event until it changes, and its delete is an exit with
// its relation to the reference.
func TestPreexistingObjectExits(t *testing.T) {
	idx := newTestIndex(t)
	if err := idx.Insert(geom.R(10, 10, 20, 20), 1); err != nil {
		t.Fatal(err)
	}
	tab := newTestTable(t)
	sub, err := tab.Subscribe(geom.R(0, 0, 100, 100), topo.NotDisjoint, 0)
	if err != nil {
		t.Fatal(err)
	}
	mustDelete(t, idx, tab, geom.R(10, 10, 20, 20), 1)
	tab.Sync()
	evs := drain(sub)
	if len(evs) != 1 || evs[0].Type != Exit || evs[0].Rel != topo.Inside {
		t.Fatalf("expected one exit (inside), got %v", evs)
	}
	tab.Unsubscribe(sub)
	if tab.active.Load() {
		t.Fatal("table still active after last unsubscribe")
	}
}

// TestLaggingSubscriberTerminated: a full event buffer ends the
// subscription instead of blocking the notifier.
func TestLaggingSubscriberTerminated(t *testing.T) {
	idx := newTestIndex(t)
	tab := newTestTable(t)
	sub, err := tab.Subscribe(geom.R(0, 0, 100, 100), topo.NotDisjoint, 1)
	if err != nil {
		t.Fatal(err)
	}
	for oid := uint64(1); oid <= 3; oid++ {
		mustInsert(t, idx, tab, geom.R(10, 10, 20, 20), oid)
	}
	tab.Sync()
	deadline := time.After(5 * time.Second)
	for {
		select {
		case _, ok := <-sub.Events():
			if !ok {
				if sub.EndReason() == "" {
					t.Fatal("terminated without a reason")
				}
				if tab.Counters().Dropped == 0 {
					t.Fatal("dropped counter did not move")
				}
				return
			}
		case <-deadline:
			t.Fatal("subscription not terminated")
		}
	}
}

// TestClose ends all subscriptions with the close reason and rejects
// new ones.
func TestClose(t *testing.T) {
	tab := newTestTable(t)
	sub, err := tab.Subscribe(geom.R(0, 0, 1, 1), topo.NotDisjoint, 0)
	if err != nil {
		t.Fatal(err)
	}
	tab.Close("drain")
	if _, ok := <-sub.Events(); ok {
		t.Fatal("channel open after close")
	}
	if sub.EndReason() != "drain" {
		t.Fatalf("end reason %q", sub.EndReason())
	}
	if _, err := tab.Subscribe(geom.R(0, 0, 1, 1), topo.NotDisjoint, 0); err != ErrClosed {
		t.Fatalf("expected ErrClosed, got %v", err)
	}
	tab.Close("again") // idempotent
}

// TestRandomTraceMatchesBruteForce drives a random per-record trace —
// inserts, deletes, second rectangles for stored objects, and bulk
// insert batches — through the table, and checks that replaying each
// subscription's events as multiset operations on (oid, rect)
// reconstructs exactly the registrations a brute-force evaluation of
// the final state admits.
func TestRandomTraceMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	idx := newTestIndex(t)
	tab := newTestTable(t)

	type spec struct {
		ref  geom.Rect
		rels topo.Set
	}
	specs := []spec{
		{geom.R(100, 100, 300, 300), topo.NotDisjoint},
		{geom.R(200, 200, 260, 260), topo.Set(0).Add(topo.Contains)},
		{geom.R(50, 50, 600, 600), topo.In},
		{geom.R(300, 100, 500, 250), topo.Set(0).Add(topo.Meet)},
		{geom.R(0, 0, 80, 80), topo.Set(0).Add(topo.Disjoint)},
		{geom.R(120, 300, 180, 420), topo.Set(0).Add(topo.Equal).Add(topo.Overlap)},
	}
	subs := make([]*Subscription, len(specs))
	for i, sp := range specs {
		var err error
		if subs[i], err = tab.Subscribe(sp.ref, sp.rels, 1<<14); err != nil {
			t.Fatal(err)
		}
	}

	type reg struct {
		oid uint64
		r   geom.Rect
	}
	var live []reg // the stored registrations
	var edges []float64
	for _, sp := range specs {
		edges = append(edges, sp.ref.Min.X, sp.ref.Min.Y, sp.ref.Max.X, sp.ref.Max.Y)
	}
	slices.Sort(edges)
	edges = slices.Compact(edges)
	nextOID := uint64(1)
	randRect := func() geom.Rect {
		switch rng.Intn(4) {
		case 0:
			// Park some rectangles with their x-extent strictly inside
			// the contains subscription's reference: touching it,
			// never containing it.
			x := 205 + rng.Float64()*20
			y := rng.Float64() * 600
			return geom.R(x, y, x+5+rng.Float64()*25, y+5+rng.Float64()*80)
		case 1:
			// Put some edges on the references' edges: the ties where
			// a set's sign masks alone over-admit, and the probe
			// behind them decides.
			span := func() (float64, float64) {
				i := rng.Intn(len(edges) - 1)
				return edges[i], edges[i+1+rng.Intn(len(edges)-1-i)]
			}
			x0, x1 := span()
			y0, y1 := span()
			return geom.R(x0, y0, x1, y1)
		}
		x, y := rng.Float64()*600, rng.Float64()*600
		return geom.R(x, y, x+5+rng.Float64()*80, y+5+rng.Float64()*80)
	}
	insert := func(oid uint64) Mutation {
		r := randRect()
		if err := idx.Insert(r, oid); err != nil {
			t.Fatal(err)
		}
		live = append(live, reg{oid, r})
		return Mutation{Op: OpInsert, OID: oid, Rect: r}
	}

	records := 0
	for step := 0; step < 600; step++ {
		switch op := rng.Intn(10); {
		case op < 4 || len(live) == 0: // insert a new object
			tab.Publish(insert(nextOID))
			nextOID++
			records++
		case op < 5: // a second rectangle for a stored object
			tab.Publish(insert(live[rng.Intn(len(live))].oid))
			records++
		case op < 6: // a bulk batch
			var batch []Mutation
			for range 3 {
				batch = append(batch, insert(nextOID))
				nextOID++
			}
			tab.Publish(batch...)
			records += len(batch)
		default: // delete one registration
			i := rng.Intn(len(live))
			e := live[i]
			live = append(live[:i], live[i+1:]...)
			mustDelete(t, idx, tab, e.r, e.oid)
			records++
		}
	}
	tab.Sync()

	c := tab.Counters()
	if c.Evaluated == 0 || c.Pruned == 0 {
		t.Fatalf("expected both filter layers to fire: %+v", c)
	}
	if want := uint64(len(specs) * records); c.Evaluated+c.Pruned != want {
		t.Fatalf("evaluated + pruned = %d, want subscriptions × records = %d", c.Evaluated+c.Pruned, want)
	}

	for i, sp := range specs {
		cfgs := mbr.CandidatesSet(sp.rels)
		got := make(map[reg]int)
		for _, ev := range drain(subs[i]) {
			c := mbr.ConfigOf(ev.Rect, sp.ref)
			if !cfgs.Has(c) {
				t.Fatalf("sub %d (%v): event %+v for a rectangle the set does not admit", i, sp.rels, ev)
			}
			if ev.Rel != c.Topo() {
				t.Fatalf("sub %d (%v): event %+v reports %v, the rectangle is %v", i, sp.rels, ev, ev.Rel, c.Topo())
			}
			k := reg{ev.OID, ev.Rect}
			switch ev.Type {
			case Enter:
				got[k]++
			case Exit:
				if got[k]--; got[k] == 0 {
					delete(got, k)
				}
			}
		}
		want := make(map[reg]int)
		for _, e := range live {
			if cfgs.Has(mbr.ConfigOf(e.r, sp.ref)) {
				want[e]++
			}
		}
		if len(want) != len(got) {
			t.Fatalf("sub %d (%v): reconstructed %d registrations, want %d", i, sp.rels, len(got), len(want))
		}
		for k, n := range want {
			if got[k] != n {
				t.Fatalf("sub %d (%v): registration %v counted %d times, want %d", i, sp.rels, k, got[k], n)
			}
		}
	}
}
