package rtree

import (
	"context"
	"crypto/sha256"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"

	"mbrtopo/internal/geom"
)

var updateStoreGolden = flag.Bool("update", false, "rewrite testdata/store.golden from this run")

// digest is a short fingerprint of v's printed form.
func digest(v ...any) string {
	h := sha256.Sum256([]byte(fmt.Sprint(v...)))
	return fmt.Sprintf("%x", h[:8])
}

// TestStoreGolden replays one seeded stream of Insert, Delete (including
// a missing entry, so the R-/R*-tree rolls a mutation back), InsertBatch
// and Update for each tree kind. After every step it checks the
// invariants and writes one line of what a reader can observe:
//
//   - the SHA-256 of the MBRFLAT1 image, which holds every node's level,
//     page cost and entries in order, and no page or slot id;
//   - the page counters (IOStats);
//   - each window's node accesses, and a digest of its answer and
//     TraversalStats;
//   - the same for two 5-NN queries, and on R-/R*-trees for a self-join.
//
// The R+ stream starts with a stack of nested squares that no cut line
// separates, so an overflow-chained node (page cost above one) is in
// every line after it. testdata/store.golden was written by trees whose
// nodes sat on a page file, before the node arena became the only node
// store; the arena reproduced it byte for byte then and must go on doing
// so. go test -run TestStoreGolden -update rewrites it, which is only
// right for an intended change to the trees' shape or costs.
func TestStoreGolden(t *testing.T) {
	kinds := []struct {
		name     string
		mk       func() (kindTree, error)
		joinable bool
		steps    int
	}{
		{"R-tree", func() (kindTree, error) { return newTestRTree() }, true, 260},
		{"R*-tree", func() (kindTree, error) { return newTestRStar() }, true, 260},
		{"R+-tree", func() (kindTree, error) { return NewRPlusArena(testPageSize) }, false, 160},
	}
	var lines []string
	for _, k := range kinds {
		t.Run(k.name, func(t *testing.T) {
			lines = append(lines, replayStoreStream(t, k.name, k.mk, k.joinable, k.steps)...)
		})
	}
	if *updateStoreGolden {
		if err := os.WriteFile("testdata/store.golden", []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile("testdata/store.golden")
	if err != nil {
		t.Fatal(err)
	}
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	for i := range max(len(lines), len(wantLines)) {
		g, w := "(none)", "(none)"
		if i < len(lines) {
			g = lines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("the trees differ from testdata/store.golden at line %d:\n got:  %s\n want: %s", i+1, g, w)
		}
	}
}

// replayStoreStream runs one kind's mutation stream on the tree mk
// builds and returns its golden lines.
func replayStoreStream(t *testing.T, kind string, mk func() (kindTree, error), joinable bool, steps int) []string {
	t.Helper()
	tree, err := mk()
	if err != nil {
		t.Fatal(err)
	}
	windows := []geom.Rect{geom.R(10, 10, 30, 30), geom.R(45, 45, 55, 55), geom.R(0, 0, 100, 100), geom.R(70, 20, 71, 21)}
	points := []geom.Point{{X: 50, Y: 50}, {X: 5, Y: 90}}

	var lines []string
	maxCost := uint32(0)
	record := func(step string) {
		t.Helper()
		if err := tree.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		var b strings.Builder
		fmt.Fprintf(&b, "%s %s:", kind, step)
		var accesses []string
		var answers []any
		for _, w := range windows {
			oids, ts := collect(t, tree, w)
			accesses = append(accesses, fmt.Sprint(ts.NodeAccesses))
			answers = append(answers, oids, ts)
		}
		fmt.Fprintf(&b, " windows %s #%s", strings.Join(accesses, ","), digest(answers...))
		accesses, answers = nil, nil
		for _, p := range points {
			nn, ts, err := tree.NearestCtx(context.Background(), p, 5)
			if err != nil {
				t.Fatal(err)
			}
			accesses = append(accesses, fmt.Sprint(ts.NodeAccesses))
			answers = append(answers, nn, ts)
		}
		fmt.Fprintf(&b, " knn %s #%s", strings.Join(accesses, ","), digest(answers...))
		if joinable {
			pairs, ts := runJoin(t, tree.(*Tree), tree.(*Tree), JoinOptions{Workers: 1})
			fmt.Fprintf(&b, " join %d #%s", ts.NodeAccesses, digest(pairs, ts))
		}
		image := flatEncode(t, tree, 7)
		f, err := OpenFlatBytes(image)
		if err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		for i := range f.nodes {
			maxCost = max(maxCost, f.nodes[i].cost)
		}
		io := tree.IOStats()
		fmt.Fprintf(&b, " image %x io %d/%d/%d/%d", sha256.Sum256(image), io.Reads, io.Writes, io.Allocs, io.Frees)
		lines = append(lines, b.String())
	}

	rng := rand.New(rand.NewSource(1995))
	live := map[uint64]geom.Rect{}
	var oids []uint64
	next := uint64(1)
	insert := func(step string, r geom.Rect) {
		oid := next
		next++
		if err := tree.Insert(r, oid); err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		live[oid] = r
		oids = append(oids, oid)
	}
	pick := func() (uint64, geom.Rect) {
		i := rng.Intn(len(oids))
		oid := oids[i]
		oids[i] = oids[len(oids)-1]
		oids = oids[:len(oids)-1]
		return oid, live[oid]
	}
	record("empty")
	if !joinable {
		// Greene's degeneracy: more nested squares than a page holds.
		for i := 0; i < CapacityForPageSize(testPageSize)+6; i++ {
			d := float64(i + 1)
			step := fmt.Sprintf("nested square %d", i)
			insert(step, geom.R(50-d, 50-d, 50+d, 50+d))
			record(step)
		}
	}
	for i := 0; i < steps; i++ {
		var step string
		switch c := rng.Intn(10); {
		case len(oids) < 20 || c < 4:
			step = fmt.Sprintf("step %d insert", i)
			insert(step, randRect(rng, 100, 6))
		case c < 6:
			oid, r := pick()
			step = fmt.Sprintf("step %d delete %d", i, oid)
			if err := tree.Delete(r, oid); err != nil {
				t.Fatalf("%s: %v", step, err)
			}
			delete(live, oid)
		case c < 7:
			step = fmt.Sprintf("step %d delete of a missing entry", i)
			if err := tree.Delete(geom.R(1, 1, 2, 2), 1<<40); !errors.Is(err, ErrNotFound) {
				t.Fatalf("%s: %v", step, err)
			}
		case c < 8:
			step = fmt.Sprintf("step %d batch", i)
			batch := make([]Record, 1+rng.Intn(15))
			for j := range batch {
				batch[j] = Record{Rect: randRect(rng, 100, 6), OID: next}
				live[next] = batch[j].Rect
				oids = append(oids, next)
				next++
			}
			if err := tree.InsertBatch(batch); err != nil {
				t.Fatalf("%s: %v", step, err)
			}
		default:
			oid, r := pick()
			to := randRect(rng, 100, 6)
			step = fmt.Sprintf("step %d update %d", i, oid)
			if err := move(tree, r, to, oid); err != nil {
				t.Fatalf("%s: %v", step, err)
			}
			live[oid] = to
			oids = append(oids, oid)
		}
		record(step)
	}
	if tree.Len() != len(live) {
		t.Fatalf("Len %d, want %d", tree.Len(), len(live))
	}
	if !joinable && maxCost < 2 {
		t.Fatal("the R+ stream never produced an overflow-chained node")
	}
	return lines
}
