package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"time"

	"mbrtopo/internal/geom"
	"mbrtopo/internal/index"
	"mbrtopo/internal/server"
	"mbrtopo/internal/topo"
	"mbrtopo/internal/workload"
)

// streamLen is the length of each client's pre-marshalled request ring.
// Clients wrap around it; on the cache-off workloads a repeat costs the
// server the same as a fresh reference.
const streamLen = 1 << 14

// hotSetSize is the number of distinct window requests behind the
// `hot` stream and the `mixed_rw` reader.
const hotSetSize = 64

// firstWriteOID is where the writer's fresh object ids start, clear of
// the generated dataset's 1..n.
const firstWriteOID = 1 << 32

// plan is one workload made concrete for a seed and a scale: the
// server's argv, the traffic, and the data the oracle checks against.
type plan struct {
	name string
	// argv boots topod fresh; rebootArgv boots it again from its data
	// directory alone — after the SIGKILL of the durability check, and
	// with rebootInSetup also inside set-up, after a SIGTERM.
	argv, rebootArgv []string
	rebootInSetup    bool
	durable          bool   // argv carries -data-dir
	wantBackend      string // asserted on /v1/indexes after set-up
	// streams holds one request ring per closed-loop client.
	streams [][]request
	warm    int // warm-up requests per client
	// items is the dataset topod generates from -seed; items2 the
	// second index of the join workload.
	items, items2 []index.Item
	cacheSize     int
	// null is the reference answer measured beside the workload, once per
	// slice of the window.
	null  nullShape
	slice time.Duration
}

func wireRect(r geom.Rect) []float64 {
	return []float64{r.Min.X, r.Min.Y, r.Max.X, r.Max.Y}
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // wire structs of floats and strings always marshal
	}
	return b
}

func relNames(s topo.Set) []string {
	var out []string
	for _, r := range s.Relations() {
		out = append(out, r.String())
	}
	return out
}

func queryRequest(rels topo.Set, ref geom.Rect) request {
	return request{
		kind: kQuery, method: "POST", path: "/v1/query", rels: rels, ref: ref,
		body: mustJSON(server.QueryRequest{Relations: relNames(rels), Ref: wireRect(ref)}),
	}
}

// hotWindow draws a square window of the medium class's mean area (its
// areas are uniform in 5–100 % of the cap) at a uniform position. The hot
// sets use one size so the bytes per answer do not depend on which
// references a seed happens to favour.
func hotWindow(rng *rand.Rand) geom.Rect {
	world := workload.World()
	side := math.Sqrt(workload.Medium.MaxAreaFraction() * world.Area() * 0.525)
	x := world.Min.X + rng.Float64()*(world.Width()-side)
	y := world.Min.Y + rng.Float64()*(world.Height()-side)
	return geom.R(x, y, x+side, y+side)
}

func hotSet(rng *rand.Rand) []request {
	set := make([]request, hotSetSize)
	for i := range set {
		set[i] = queryRequest(topo.NotDisjoint, hotWindow(rng))
	}
	return set
}

// baseArgv are the flags every workload's fresh boot shares.
func baseArgv(seed int64, n int) []string {
	return []string{"-tree", "rstar", "-bulk", "-class", "medium",
		"-seed", strconv.FormatInt(seed, 10), "-gen", strconv.Itoa(n)}
}

// buildPlan makes the named workload for a seed. dir is the data
// directory of the durable workloads.
func buildPlan(name string, seed int64, sc scale, dir string) (*plan, error) {
	p := &plan{name: name, warm: sc.warm, wantBackend: "paged", slice: sc.slice}
	n := sc.n
	if name == wJoin {
		n = sc.joinN
	}
	// topod's loadItems: NewDataset(class, gen, 0, seed).
	p.items = workload.NewDataset(workload.Medium, n, 0, seed).Items
	p.argv = baseArgv(seed, n)
	// The reader and the writer of mixed_rw each draw from their own
	// generator, as far from topod's dataset seed as from each other.
	rng, wrng := rand.New(rand.NewSource(seed+7919)), rand.New(rand.NewSource(seed+2*7919))

	switch name {
	case wWindow:
		p.argv = append(p.argv, "-cache-size", "0")
		p.null = nullShape{lines: 222, lineBytes: 96, nominal: 1600}
		st := make([]request, streamLen)
		for i := range st {
			st[i] = queryRequest(topo.NotDisjoint, workload.RandomRect(rng, workload.Medium))
		}
		p.streams = [][]request{st}

	case wTopo:
		p.durable = true
		p.wantBackend = "flat"
		p.rebootInSetup = true
		p.argv = append(p.argv, "-cache-size", "0", "-data-dir", dir)
		p.rebootArgv = []string{"-tree", "rstar", "-cache-size", "0", "-data-dir", dir}
		p.null = nullShape{lines: 4, lineBytes: 134, nominal: 13000}
		p.streams = [][]request{topoStream(rng, p.items)}

	case wHot:
		p.cacheSize = 256
		p.argv = append(p.argv, "-cache-size", "256")
		// A hit is one write of the stored lines.
		p.null = nullShape{lines: 1, lineBytes: 21000, nominal: 11000}
		set := hotSet(rng)
		zipf := rand.NewZipf(rng, 1.1, 1, hotSetSize-1)
		st := make([]request, streamLen)
		for i := range st {
			if i < hotSetSize {
				// Every distinct request once, so the warm-up leaves the
				// whole working set cached.
				st[i] = set[i]
				continue
			}
			st[i] = set[zipf.Uint64()]
		}
		p.streams = [][]request{st}

	case wMixedRW:
		p.durable = true
		p.cacheSize = 256
		p.argv = append(p.argv, "-cache-size", "256", "-data-dir", dir, "-fsync", "always")
		p.rebootArgv = []string{"-tree", "rstar", "-cache-size", "256", "-data-dir", dir, "-fsync", "always"}
		p.null = nullShape{lines: 222, lineBytes: 96, nominal: 1850}
		set := hotSet(rng)
		reader := make([]request, streamLen)
		for i := range reader {
			reader[i] = set[rng.Intn(hotSetSize)]
		}
		p.streams = [][]request{reader, writerStream(wrng)}

	case wJoin:
		p.items2 = workload.NewDataset(workload.Medium, n, 0, seed+1).Items // topod: -gen2 is seeded -seed+1
		p.argv = append(p.argv, "-gen2", strconv.Itoa(n))
		p.warm = 4
		p.slice = sc.joinSlice
		p.null = nullShape{lines: 2550, lineBytes: 210, nominal: 260}
		rels := []topo.Relation{topo.Inside, topo.Contains, topo.Covers, topo.CoveredBy}
		st := make([]request, len(rels))
		for i, r := range rels {
			st[i] = request{
				kind: kJoin, method: "POST", path: "/v1/join", rels: topo.NewSet(r),
				body: mustJSON(server.JoinRequest{Left: "main", Right: "second", Relations: []string{r.String()}}),
			}
		}
		p.streams = [][]request{st}

	default:
		return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
	}
	return p, nil
}

// topoStream is the paper's core path: single high-resolution relations
// with answers of a few lines. Half the references are stored objects
// (so equal, covers and covered_by are non-empty), half are random; one
// request in eight is a two-term conjunction, one in eight a 10-NN.
func topoStream(rng *rand.Rand, items []index.Item) []request {
	rels := []topo.Relation{topo.Equal, topo.Covers, topo.CoveredBy, topo.Contains, topo.Inside}
	ref := func() geom.Rect {
		if rng.Intn(2) == 0 {
			return items[rng.Intn(len(items))].Rect
		}
		return workload.RandomRect(rng, workload.Medium)
	}
	st := make([]request, streamLen)
	for i := range st {
		switch i % 8 {
		case 3:
			// Two nested references. Even conjunctions ask for objects in
			// the outer one that touch the inner one, which the planner must
			// order and traverse; odd ones ask for objects inside the inner
			// and containing the outer, which the composition table proves
			// empty without a page read.
			inner := ref()
			outer := inner.Grow(10)
			c := request{kind: kConj, method: "POST", path: "/v1/query",
				rels: topo.In, ref: outer, rels2: topo.NotDisjoint, ref2: inner}
			if i/8%2 == 1 {
				c.rels, c.ref = topo.NewSet(topo.Inside), inner
				c.rels2, c.ref2 = topo.NewSet(topo.Contains), outer
			}
			c.body = mustJSON(server.QueryRequest{
				Relations: relNames(c.rels), Ref: wireRect(c.ref),
				Relations2: relNames(c.rels2), Ref2: wireRect(c.ref2),
			})
			st[i] = c
		case 7:
			pt := geom.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000}
			st[i] = request{
				kind: kKNN, method: "GET", pt: pt, k: 10,
				path: "/v1/knn?k=10&x=" + strconv.FormatFloat(pt.X, 'g', -1, 64) +
					"&y=" + strconv.FormatFloat(pt.Y, 'g', -1, 64),
			}
		default:
			st[i] = queryRequest(topo.NewSet(rels[i%len(rels)]), ref())
		}
	}
	return st
}

// writerBacklog is how many of its own inserts the writer keeps live
// before it starts deleting the oldest.
const writerBacklog = 64

// writerStream alternates inserts of fresh ids with deletes of the
// writer's own oldest insert, so the live size stays at n+writerBacklog.
// Unlike the read rings it must not wrap: 4·streamLen operations outlast
// any run.
func writerStream(rng *rand.Rand) []request {
	st := make([]request, 0, 4*streamLen)
	var live []request
	mutation := func(kind uint8, path string, oid uint64, r geom.Rect) request {
		return request{
			kind: kind, method: "POST", path: path, oid: oid, ref: r,
			body: mustJSON(server.UpdateRequest{OID: oid, Rect: wireRect(r)}),
		}
	}
	next := uint64(firstWriteOID)
	for len(st) < cap(st) {
		if len(live) < writerBacklog || len(st)%2 == 0 {
			ins := mutation(kInsert, "/v1/insert", next, workload.RandomRect(rng, workload.Medium))
			next++
			live = append(live, ins)
			st = append(st, ins)
			continue
		}
		st = append(st, mutation(kDelete, "/v1/delete", live[0].oid, live[0].ref))
		live = live[1:]
	}
	return st
}
