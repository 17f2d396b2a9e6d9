package watch

import (
	"math/rand"
	"testing"
	"time"

	"mbrtopo/internal/geom"
	"mbrtopo/internal/index"
	"mbrtopo/internal/mbr"
	"mbrtopo/internal/topo"
)

// newTestTable builds a table over a live R-tree, publishing through
// the same lock discipline the server uses (the test is
// single-threaded, so plain calls suffice).
func newTestTable(t *testing.T, idx index.Index) *Table {
	t.Helper()
	subIdx, err := index.NewWithPageSize(index.KindRTree, index.PaperPageSize)
	if err != nil {
		t.Fatal(err)
	}
	all := func(geom.Rect) bool { return true }
	scan := func(emit func(geom.Rect, uint64) bool) error {
		return idx.Search(all, all, emit)
	}
	return NewTable(scan, subIdx, nil)
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

// TestEnterChangeExit walks one object through a subscription's
// lifecycle and checks the event sequence and relations.
func TestEnterChangeExit(t *testing.T) {
	idx, err := index.NewWithPageSize(index.KindRTree, index.PaperPageSize)
	if err != nil {
		t.Fatal(err)
	}
	tab := newTestTable(t, idx)
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
	move(inside, overlapping, 7)    // change (inside → overlap)
	mustDelete(t, idx, tab, overlapping, 7)
	tab.Sync()

	evs := drain(sub)
	if len(evs) != 3 {
		t.Fatalf("expected 3 events, got %v", evs)
	}
	if evs[0].Type != Enter || evs[0].New != topo.Inside || evs[0].OID != 7 {
		t.Fatalf("bad enter event %+v", evs[0])
	}
	if evs[1].Type != Change || evs[1].Old != topo.Inside || evs[1].New != topo.Overlap {
		t.Fatalf("bad change event %+v", evs[1])
	}
	if evs[2].Type != Exit || !evs[2].HasOld || evs[2].HasNew {
		t.Fatalf("bad exit event %+v", evs[2])
	}
	if !(evs[0].Gen < evs[1].Gen && evs[1].Gen < evs[2].Gen) {
		t.Fatalf("generations not increasing: %v", evs)
	}
	tab.Unsubscribe(sub)
	if _, ok := <-sub.Events(); ok {
		t.Fatal("channel still open after unsubscribe")
	}
	if sub.EndReason() != "unsubscribed" {
		t.Fatalf("end reason %q", sub.EndReason())
	}
}

// TestDisjointSubscription: relation sets admitting disjoint bypass
// the reference R-tree (every mutation is a candidate) and see objects
// far away from the reference.
func TestDisjointSubscription(t *testing.T) {
	idx, err := index.NewWithPageSize(index.KindRTree, index.PaperPageSize)
	if err != nil {
		t.Fatal(err)
	}
	tab := newTestTable(t, idx)
	sub, err := tab.Subscribe(geom.R(0, 0, 10, 10), topo.Set(0).Add(topo.Disjoint), 0)
	if err != nil {
		t.Fatal(err)
	}
	mustInsert(t, idx, tab, geom.R(500, 500, 510, 510), 1) // enter (disjoint)
	mustDelete(t, idx, tab, geom.R(500, 500, 510, 510), 1) // exit
	tab.Sync()
	evs := drain(sub)
	if len(evs) != 2 || evs[0].Type != Enter || evs[0].New != topo.Disjoint || evs[1].Type != Exit {
		t.Fatalf("unexpected events %v", evs)
	}
	tab.Unsubscribe(sub)
}

// TestSeededShadow: objects present before the subscription produce no
// spurious events, and their transitions are diffed against the
// seeded state.
func TestSeededShadow(t *testing.T) {
	idx, err := index.NewWithPageSize(index.KindRTree, index.PaperPageSize)
	if err != nil {
		t.Fatal(err)
	}
	if err := idx.Insert(geom.R(10, 10, 20, 20), 1); err != nil {
		t.Fatal(err)
	}
	tab := newTestTable(t, idx)
	sub, err := tab.Subscribe(geom.R(0, 0, 100, 100), topo.NotDisjoint, 0)
	if err != nil {
		t.Fatal(err)
	}
	mustDelete(t, idx, tab, geom.R(10, 10, 20, 20), 1)
	tab.Sync()
	evs := drain(sub)
	if len(evs) != 1 || evs[0].Type != Exit || !evs[0].HasOld || evs[0].Old != topo.Inside {
		t.Fatalf("expected one exit diffed against the seeded shadow, got %v", evs)
	}
	tab.Unsubscribe(sub)
	if tab.active.Load() {
		t.Fatal("table still active after last unsubscribe")
	}
}

// TestLaggingSubscriberTerminated: a full event buffer ends the
// subscription instead of blocking the notifier.
func TestLaggingSubscriberTerminated(t *testing.T) {
	idx, err := index.NewWithPageSize(index.KindRTree, index.PaperPageSize)
	if err != nil {
		t.Fatal(err)
	}
	tab := newTestTable(t, idx)
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
	idx, err := index.NewWithPageSize(index.KindRTree, index.PaperPageSize)
	if err != nil {
		t.Fatal(err)
	}
	tab := newTestTable(t, idx)
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

// TestRandomTraceMatchesBruteForce drives a random single-rectangle
// mutation trace through the table and checks that replaying the
// filtered incremental event stream reconstructs exactly the
// membership a from-scratch evaluation of the final state reports.
func TestRandomTraceMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	idx, err := index.NewWithPageSize(index.KindRTree, index.PaperPageSize)
	if err != nil {
		t.Fatal(err)
	}
	tab := newTestTable(t, idx)

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
		if subs[i], err = tab.Subscribe(sp.ref, sp.rels, 4096); err != nil {
			t.Fatal(err)
		}
	}

	member := func(sp spec, r geom.Rect) bool {
		return mbr.CandidatesSet(sp.rels).Has(mbr.ConfigOf(r, sp.ref))
	}

	live := make(map[uint64]geom.Rect)
	members := make([]map[uint64]bool, len(specs))
	for i := range members {
		members[i] = make(map[uint64]bool)
	}
	nextOID := uint64(1)
	randRect := func() geom.Rect {
		if rng.Intn(4) == 0 {
			// Park some objects with their x-extent strictly inside
			// the contains subscription's reference, where a small move
			// changes the configuration without changing membership.
			x := 205 + rng.Float64()*20
			y := rng.Float64() * 600
			return geom.R(x, y, x+5+rng.Float64()*25, y+5+rng.Float64()*80)
		}
		x, y := rng.Float64()*600, rng.Float64()*600
		return geom.R(x, y, x+5+rng.Float64()*80, y+5+rng.Float64()*80)
	}

	for step := 0; step < 500; step++ {
		switch op := rng.Intn(10); {
		case op < 5 && len(live) > 0: // small move
			var oid uint64
			for oid = range live {
				break
			}
			old := live[oid]
			dx, dy := (rng.Float64()-0.5)*10, (rng.Float64()-0.5)*10
			next := geom.R(old.Min.X+dx, old.Min.Y+dy, old.Max.X+dx, old.Max.Y+dy)
			if err := idx.Delete(old, oid); err != nil {
				t.Fatal(err)
			}
			if err := idx.Insert(next, oid); err != nil {
				t.Fatal(err)
			}
			tab.Publish(
				Mutation{Op: OpDelete, OID: oid, Rect: old},
				Mutation{Op: OpInsert, OID: oid, Rect: next},
			)
			live[oid] = next
		case op < 8: // insert
			r := randRect()
			mustInsert(t, idx, tab, r, nextOID)
			live[nextOID] = r
			nextOID++
		default: // delete
			if len(live) == 0 {
				continue
			}
			var oid uint64
			for oid = range live {
				break
			}
			mustDelete(t, idx, tab, live[oid], oid)
			delete(live, oid)
		}
	}
	tab.Sync()

	c := tab.Counters()
	if c.Evaluated == 0 || c.Pruned == 0 {
		t.Fatalf("expected both filter layers to fire: %+v", c)
	}

	for i, sp := range specs {
		for _, ev := range drain(subs[i]) {
			switch ev.Type {
			case Enter:
				members[i][ev.OID] = true
			case Exit:
				delete(members[i], ev.OID)
			}
		}
		want := make(map[uint64]bool)
		for oid, r := range live {
			if member(sp, r) {
				want[oid] = true
			}
		}
		if len(want) != len(members[i]) {
			t.Fatalf("sub %d (%v): reconstructed %d members, want %d", i, sp.rels, len(members[i]), len(want))
		}
		for oid := range want {
			if !members[i][oid] {
				t.Fatalf("sub %d (%v): missing member %d", i, sp.rels, oid)
			}
		}
	}
}
