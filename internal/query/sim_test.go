package query

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"mbrtopo/internal/direction"
	"mbrtopo/internal/geom"
	"mbrtopo/internal/index"
	"mbrtopo/internal/mbr"
	"mbrtopo/internal/rtree"
	"mbrtopo/internal/topo"
)

// FuzzQuery is the library simulator (DESIGN §15): after every step of
// a seeded stream of inserts and deletes, one query of each class on
// every tree must answer what a scan of the whole store through geom
// (or direction.Holds) answers, as a multiset of registrations. One
// input runs one tree kind (kind modulo 3): seed#0 and seed#1 are seeds
// 1 and 2 as R-trees, seed#2 and seed#3 as R+-trees, seed#4 and seed#5
// as R*-trees. A failing input the fuzzer finds replays from
// testdata/fuzz/FuzzQuery.
func FuzzQuery(f *testing.F) {
	kinds := index.AllKinds()
	for k := range kinds {
		f.Add(int64(1), uint8(k))
		f.Add(int64(2), uint8(k))
	}
	f.Fuzz(func(t *testing.T, seed int64, k uint8) {
		t.Parallel()
		i := int(k) % len(kinds)
		t.Run([]string{"rtree", "rplus", "rstar"}[i], func(t *testing.T) { runQuerySim(t, seed, kinds[i]) })
	})
}

const (
	qsimPageSize = 168 // capacity 4: trees three and four levels deep
	qsimGrid     = 24  // shapes start on [0, qsimGrid)² of the lattice
	qsimSteps    = 12
)

// The store's layers; a tree indexes one of them.
const (
	qPoly = iota
	qMulti
	qLine
)

// qtree is one tree and the registrations it holds: a refused R+
// mutation leaves both as they were, so trees of a layer may differ.
type qtree struct {
	name  string
	layer int
	idx   index.Index
	wide  bool // holds enlarged MBRs, for non-crisp retrieval
	live  []rtree.Record
}

type qsim struct {
	t                *testing.T
	seed             int64
	kind             index.Kind
	rng              *rand.Rand
	s, off           float64 // the map
	step             int
	op, ref          string // the step's mutation; the reference or point a class runs on
	trees            []*qtree
	regions          RegionStore // every region: its queries and joins take the Section 7 tables
	polys            MapStore    // the polygon layer's view, which keeps Table 1
	lines            LineStore
	lattice          map[uint64]geom.Polygon     // a polygon before the map
	cells            map[uint64][][2]int         // the unit cells it covers
	rect             map[uint64]geom.Rect        // an object's MBR
	refs             []geom.Region               // stored, variant, fresh, multi-polygon, far, flank, strait
	memo             map[[2]uint64]int           // the scan's verdicts on (oid, ref) this step
	pairs            map[[2]uint64]topo.Relation // the scan's verdicts on pairs of objects
	knn              []geom.Point                // this step's kNN query points
	seen             map[string]bool             // classes with a non-empty answer
	sum              Stats                       // the relation sets' step-4 counters
	refused, nextOID int
}

// newQuerySim starts an empty store under the seed's map.
func newQuerySim(t *testing.T, seed int64, kind index.Kind) *qsim {
	rng := rand.New(rand.NewSource(seed))
	return &qsim{t: t, seed: seed, kind: kind, rng: rng, op: "build", nextOID: 1,
		// The scales and offsets under which geom decides lattice shapes
		// exactly (ROADMAP item 12).
		s: []float64{1e-4, 1, 1e3}[rng.Intn(3)], off: []float64{0, 180}[rng.Intn(2)],
		regions: RegionStore{}, polys: MapStore{}, lines: LineStore{}, lattice: map[uint64]geom.Polygon{}, cells: map[uint64][][2]int{},
		rect: map[uint64]geom.Rect{}, pairs: map[[2]uint64]topo.Relation{}, seen: map[string]bool{}}
}

func runQuerySim(t *testing.T, seed int64, kind index.Kind) {
	s := newQuerySim(t, seed, kind)
	t.Cleanup(func() {
		if t.Failed() {
			replay := "go test -run with the file the fuzzer wrote under testdata/fuzz/FuzzQuery"
			if strings.Count(t.Name(), "/") == 2 { // FuzzQuery/seed#N/kind or FuzzQuery/<file>/kind
				replay = "go test ./internal/query -run '^" + strings.ReplaceAll(t.Name(), "/", "$/^") + "$'"
			}
			t.Logf("map x ↦ %g + %g·x; replay: %s", s.off, s.s, replay)
		}
	})
	for layer, n := range []int{32, 10, 16} {
		s.build(layer, n)
	}
	for ; s.step <= qsimSteps; s.step++ {
		if s.step > 0 {
			s.mutate()
		}
		s.check()
	}
	if !s.sum.ShortCircuited || s.sum.DirectAccepts == 0 || s.sum.HullResolved == 0 || s.sum.FalseHits == 0 {
		t.Fatalf("seed %d, %v: a step-4 path never fired: %+v", seed, kind, s.sum)
	}
	seen := map[string]int{}
	for class := range s.seen {
		if f := strings.Fields(class); len(f) == 2 { // one relation
			seen[f[0]]++
		}
	}
	t.Logf("non-empty: %d/8 relations, %d/13 direction relations, %d/6 line relations, %d/3 point modes, joins %v; %d R+ mutations refused",
		seen["relation"], seen["direction"], seen["line"], seen["point"], s.seen["join"], s.refused)
}

func (s *qsim) label(tr *qtree, class string) string {
	return fmt.Sprintf("seed %d, %v, step %d (%s), %s tree, %s%s", s.seed, s.kind, s.step, s.op, tr.name, class, s.ref)
}

func (s *qsim) fatalf(tr *qtree, class, format string, args ...any) {
	s.t.Helper()
	s.t.Fatalf("%s: %s", s.label(tr, class), fmt.Sprintf(format, args...))
}

func (s *qsim) at(x, y float64) geom.Point { return geom.Point{X: s.off + s.s*x, Y: s.off + s.s*y} }

func (s *qsim) mapped(pg geom.Polygon) geom.Polygon {
	return pg.ScaleAbout(geom.Point{}, s.s).Translate(geom.Point{X: s.off, Y: s.off})
}

// stair draws an x-monotone staircase of at most n columns n high, in
// one of 8 orientations, from (x, y) up, and the unit cells it covers.
func (s *qsim) stair(x, y, n int) (pg geom.Polygon, cells [][2]int) {
	hs := make([]int, 1+s.rng.Intn(n))
	for i := range hs {
		hs[i] = 1 + s.rng.Intn(n)
	}
	slices.Sort(hs)
	w, h, o := float64(len(hs)), float64(hs[len(hs)-1]), s.rng.Intn(8)
	orient := func(px, py float64) geom.Point { // mirror x, mirror y, swap the axes
		px, py = [2]float64{px, w - px}[o&1], [2]float64{py, h - py}[o>>1&1]
		if o&4 != 0 {
			px, py = py, px
		}
		return geom.Point{X: float64(x) + px, Y: float64(y) + py}
	}
	pg = geom.Polygon{orient(0, 0), orient(w, 0), orient(w, h)}
	for i := len(hs) - 1; i > 0; i-- {
		if hs[i-1] != hs[i] {
			pg = append(pg, orient(float64(i), float64(hs[i])), orient(float64(i), float64(hs[i-1])))
		}
	}
	pg = append(pg, orient(0, float64(hs[0])))
	for i, hi := range hs {
		for j := range hi {
			c := orient(float64(i)+0.5, float64(j)+0.5)
			cells = append(cells, [2]int{int(c.X), int(c.Y)})
		}
	}
	return pg, cells
}

// archipelago draws up to 3 staircases near (x, y) with disjoint cells:
// components apart, abutting along an edge or touching at a corner.
func (s *qsim) archipelago(x, y int) (mp geom.MultiPolygon, cells [][2]int) {
	taken := map[[2]int]bool{}
	for k, tries := 1+s.rng.Intn(3), 0; len(mp) < k && tries < 20; tries++ {
		pg, cs := s.stair(x+s.rng.Intn(5), y+s.rng.Intn(5), 3)
		if !slices.ContainsFunc(cs, func(c [2]int) bool { return taken[c] }) {
			for _, c := range cs {
				taken[c] = true
			}
			cells = append(cells, cs...)
			mp = append(mp, s.mapped(pg))
		}
	}
	return mp, cells
}

// strait draws a bar across a gap of a stored multi-polygon, a lattice
// column or row inside its MBR that none of its cells fills, from
// beyond one side of its MBR to beyond the other: the two are disjoint
// or meet while their MBRs cross, which only Section 7's rows admit, so
// only the store can tell a query to take them. It falls back to the
// fresh staircase where no live multi-polygon has a gap.
func (s *qsim) strait(fresh geom.Region) geom.Region {
	for _, r := range s.tree("insert-built multi-polygon").live {
		cells := s.cells[r.OID]
		lo, hi := cells[0], cells[0]
		for _, c := range cells {
			lo, hi = [2]int{min(lo[0], c[0]), min(lo[1], c[1])}, [2]int{max(hi[0], c[0]), max(hi[1], c[1])}
		}
		for a := range 2 {
			for k := lo[a] + 1; k < hi[a]; k++ {
				if !slices.ContainsFunc(cells, func(c [2]int) bool { return c[a] == k }) {
					bar := [2][2]float64{{float64(k), float64(k + 1)}, {float64(lo[1-a] - 1), float64(hi[1-a] + 2)}}
					return s.mapped(geom.R(bar[a][0], bar[1-a][0], bar[a][1], bar[1-a][1]).Polygon())
				}
			}
		}
	}
	return fresh
}

// newObject stores a new object of the layer at a random lattice point.
func (s *qsim) newObject(layer int) uint64 {
	oid := uint64(s.nextOID)
	s.nextOID++
	x, y := s.rng.Intn(qsimGrid), s.rng.Intn(qsimGrid)
	switch layer {
	case qPoly:
		s.lattice[oid], s.cells[oid] = s.stair(x, y, 4)
		s.polys[oid] = s.mapped(s.lattice[oid])
		s.regions[oid] = s.polys[oid]
	case qMulti:
		s.regions[oid], s.cells[oid] = s.archipelago(x, y)
	case qLine:
		for s.lines[oid] == nil {
			pl := make(geom.PolyLine, 2+s.rng.Intn(3))
			for i := range pl {
				pl[i] = s.at(float64(x+s.rng.Intn(6)), float64(y+s.rng.Intn(6)))
			}
			if pl.Validate() == nil && pl.Bounds().Valid() {
				s.lines[oid], s.rect[oid] = pl, pl.Bounds()
			}
		}
	}
	if layer != qLine {
		s.rect[oid] = s.regions[oid].Bounds()
	}
	return oid
}

// build stores n objects of a layer and indexes them by insert, as one
// batch (an STR pack, or InsertBatch into an empty R+-tree) and adopted
// from the batch tree's MBRFLAT1 image.
func (s *qsim) build(layer, n int) {
	var recs []rtree.Record
	for range n {
		oid := s.newObject(layer)
		recs = append(recs, rtree.Record{OID: oid, Rect: s.rect[oid]})
	}
	add := func(name string, idx index.Index, live []rtree.Record) *qtree {
		tr := &qtree{name: name + " " + []string{"polygon", "multi-polygon", "line"}[layer], layer: layer, idx: idx, live: live}
		s.trees = append(s.trees, tr)
		return tr
	}
	for wide := range 2 - min(layer, 1) { // and for polygons, a non-crisp tree
		idx, _ := index.NewWithPageSize(s.kind, qsimPageSize)
		tr := add([]string{"insert-built", "non-crisp"}[wide], idx, nil)
		tr.wide = wide == 1
		for _, r := range recs {
			s.apply(tr, false, r.OID)
		}
	}
	batch, err := index.NewPacked(s.kind, qsimPageSize, recs)
	if s.kind == index.KindRPlus { // which has no STR pack
		batch, _ = index.NewWithPageSize(s.kind, qsimPageSize)
		err = batch.InsertBatch(recs)
	}
	bt := add("batch-built", batch, recs)
	if err != nil {
		s.refusal(bt, err)
		bt.live = nil
	}
	s.checkTree(bt)
	s.checkTree(add("adopted", adoptFlat(s.t, batch, s.kind, qsimPageSize), slices.Clone(bt.live)))
}

// mutate inserts a new object, inserts a live one again or deletes one
// registration, in every tree of a random layer.
func (s *qsim) mutate() {
	layer := []int{qPoly, qPoly, qPoly, qMulti, qLine, qLine}[s.rng.Intn(6)]
	trees := slices.DeleteFunc(slices.Clone(s.trees), func(tr *qtree) bool { return tr.layer != layer })
	live, del := trees[0].live, false
	var oid uint64
	switch r := s.rng.Intn(10); {
	case r < 4 && len(live) > 0:
		s.op, del, oid = "delete", true, live[s.rng.Intn(len(live))].OID
	case r < 5 && len(live) > 0:
		s.op, oid = "re-insert", live[s.rng.Intn(len(live))].OID
	default:
		s.op, oid = "insert", s.newObject(layer)
	}
	s.op += strings.TrimPrefix(trees[0].name, "insert-built")
	for _, tr := range trees {
		s.apply(tr, del, oid)
	}
}

// apply inserts or deletes one registration of oid in tr; a tree that
// refused its insert has none to delete.
func (s *qsim) apply(tr *qtree, del bool, oid uint64) {
	rec := rtree.Record{OID: oid, Rect: s.rect[oid]}
	if tr.wide { // by up to 1e-7·s
		rec.Rect = rec.Rect.Grow(float64(oid%10+1) * 1e-8 * s.s)
	}
	var err error
	if i := slices.Index(tr.live, rec); !del {
		if err = tr.idx.Insert(rec.Rect, oid); err == nil {
			tr.live = append(tr.live, rec)
		}
	} else if i >= 0 {
		if err = tr.idx.Delete(rec.Rect, oid); err == nil {
			tr.live = slices.Delete(tr.live, i, i+1)
		}
	}
	if err != nil {
		s.refusal(tr, err)
	}
	s.checkTree(tr)
}

// refusal takes err only as an R+-tree's ErrUnsplittable.
func (s *qsim) refusal(tr *qtree, err error) {
	if s.kind != index.KindRPlus || !errors.Is(err, rtree.ErrUnsplittable) {
		s.fatalf(tr, "mutation", "%v", err)
	}
	s.refused++
}

func (s *qsim) checkTree(tr *qtree) {
	if err := tr.idx.(interface{ CheckInvariants() error }).CheckInvariants(); err != nil || tr.idx.Len() != len(tr.live) {
		s.fatalf(tr, "mutation", "%d registrations, the store %d; %v", tr.idx.Len(), len(tr.live), err)
	}
}

// check draws the step's references and runs every class on every tree.
func (s *qsim) check() {
	stored, cells := s.stair(s.rng.Intn(qsimGrid), s.rng.Intn(qsimGrid), 4)
	if live := s.trees[0].live; len(live) > 0 {
		oid := live[s.rng.Intn(len(live))].OID
		stored, cells = s.lattice[oid], s.cells[oid]
	}
	variant := stored.ScaleAbout(stored[0], 2)
	switch s.rng.Intn(3) {
	case 1:
		variant = stored.Translate(geom.Point{X: float64(s.rng.Intn(3) - 1), Y: float64(s.rng.Intn(3) - 1)})
	case 2: // its cell with the most of 8 neighbours in it: inside it, if it has an inner cell
		best := -1
		for _, c := range cells {
			if n := len(slices.DeleteFunc(slices.Clone(cells), func(d [2]int) bool { return max(d[0]-c[0], c[0]-d[0], d[1]-c[1], c[1]-d[1]) != 1 })); n > best {
				best, variant = n, geom.R(float64(c[0]), float64(c[1]), float64(c[0]+1), float64(c[1]+1)).Polygon()
			}
		}
	}
	fresh, _ := s.stair(s.rng.Intn(qsimGrid), s.rng.Intn(qsimGrid), 8)
	// flank: two unit squares beside the stored polygon, whose MBR crosses theirs.
	b, g := stored.Bounds(), float64(s.rng.Intn(2))
	flank := geom.MultiPolygon{s.mapped(geom.R(b.Min.X-1-g, b.Min.Y+1, b.Min.X-g, b.Min.Y+2).Polygon()), s.mapped(geom.R(b.Max.X+g, b.Min.Y+1, b.Max.X+1+g, b.Min.Y+2).Polygon())}
	archipelago, _ := s.archipelago(s.rng.Intn(qsimGrid), s.rng.Intn(qsimGrid))
	s.refs = []geom.Region{s.mapped(stored), s.mapped(variant), s.mapped(fresh),
		archipelago, s.mapped(fresh.Translate(geom.Point{X: 2 * qsimGrid})), flank, s.strait(s.mapped(fresh))}
	s.memo = map[[2]uint64]int{}
	x, y := float64(s.rng.Intn(qsimGrid)), float64(s.rng.Intn(qsimGrid))
	s.knn = []geom.Point{s.at(x, y), s.at(x+0.5, y), s.at(s.rng.Float64()*qsimGrid, s.rng.Float64()*qsimGrid)}
	for _, tr := range s.trees {
		switch {
		case tr.wide:
			s.regionClass(tr, "non-crisp", &Processor{Idx: tr.idx, Objects: s.polys, NonCrisp: true}, s.step%3)
		case tr.layer == qPoly: // the polygons through both stores: RegionStore takes Section 7, MapStore Table 1
			s.relations(tr)
			s.regionClass(tr, "non-contiguous", &Processor{Idx: tr.idx, Objects: s.regions}, 3, 5)
			s.regionClass(tr, "contiguous", &Processor{Idx: tr.idx, Objects: s.polys}, 3, 5)
			s.conjunctions(tr)
			s.points(tr)
			s.directions(tr)
		case tr.layer == qMulti: // default options: the store decides
			s.regionClass(tr, "non-contiguous", &Processor{Idx: tr.idx, Objects: s.regions}, 2, 3, 6)
		default:
			for _, ri := range []int{2, 3} {
				s.ref = fmt.Sprintf(" ref %d", ri)
				for _, rel := range geom.AllLineRegionRelations() {
					res, err := (&Processor{Idx: tr.idx}).QueryLine(rel, s.refs[ri], s.lines)
					s.same(tr, "line "+rel.String(), res, err, func(r rtree.Record) bool { return s.verdict(r.OID, ri) == int(rel) })
				}
			}
		}
		s.nearest(tr)
		s.ref = ""
	}
	s.adoption()
	s.joins()
}

// tree returns the tree of that name.
func (s *qsim) tree(name string) *qtree {
	return s.trees[slices.IndexFunc(s.trees, func(tr *qtree) bool { return tr.name == name })]
}

// regionClass runs each single relation against refs[ri], for each ri.
func (s *qsim) regionClass(tr *qtree, class string, p *Processor, refs ...int) {
	for _, ri := range refs {
		s.ref = fmt.Sprintf(" ref %d", ri)
		for _, rel := range topo.All() {
			res, err := p.Query(rel, s.refs[ri])
			s.same(tr, class+" "+rel.String(), res, err, func(r rtree.Record) bool { return s.verdict(r.OID, ri) == int(rel) })
			if p.NonCrisp && res.Stats.DirectAccepts != 0 {
				s.fatalf(tr, class+" "+rel.String(), "%d direct accepts", res.Stats.DirectAccepts)
			}
		}
	}
}

// verdict is the scan: oid's relation (or line-region relation) to
// refs[i] by exact geometry, once per step; disjoint MBRs are disjoint.
func (s *qsim) verdict(oid uint64, i int) int {
	k := [2]uint64{oid, uint64(i)}
	if v, ok := s.memo[k]; ok {
		return v
	}
	v := 0 // topo.Disjoint, geom.LRDisjoint
	if s.rect[oid].Intersects(s.refs[i].Bounds()) {
		if pl, ok := s.lines[oid]; ok {
			r, _ := geom.RelateLineRegion(pl, s.refs[i])
			v = int(r)
		} else {
			v = int(relate(s.regions[oid], s.refs[i]))
		}
	}
	s.memo[k] = v
	return v
}

// relate is Relate for two polygons and RelateRegions otherwise.
func relate(a, b geom.Region) topo.Relation {
	p, ok1 := a.(geom.Polygon)
	q, ok2 := b.(geom.Polygon)
	if ok1 && ok2 {
		return geom.Relate(p, q)
	}
	return geom.RelateRegions(a, b)
}

// same holds an answer to tr's registrations that keep accepts, as a
// multiset, and to step 4's accounting: a candidate is accepted by its
// configuration, resolved by the hull or tested; a rejected one is a
// false hit.
func (s *qsim) same(tr *qtree, class string, res Result, err error, keep func(rtree.Record) bool) {
	s.t.Helper()
	if err != nil {
		s.fatalf(tr, class, "%v", err)
	}
	var got []rtree.Record
	for _, m := range res.Matches {
		got = append(got, rtree.Record{OID: m.OID, Rect: m.Rect})
	}
	want := slices.DeleteFunc(slices.Clone(tr.live), func(r rtree.Record) bool { return !keep(r) })
	byOID := func(a, b rtree.Record) int { return cmp.Compare(a.OID, b.OID) }
	slices.SortFunc(got, byOID)
	slices.SortFunc(want, byOID)
	if st := res.Stats; !slices.Equal(got, want) || st.Candidates != st.DirectAccepts+st.HullResolved+st.RefinementTests || len(got) != st.Candidates-st.FalseHits {
		s.fatalf(tr, class, "%d matches from %+v, the scan %d: %v against %v", len(got), st, len(want), got, want)
	}
	s.seen[class] = s.seen[class] || len(got) > 0
}

// relations runs each relation, in, not_disjoint and two random sets on
// the stored, variant and fresh references: the filter (streamed and
// not, by window and by func), and refined with and without the hull.
func (s *qsim) relations(tr *qtree) {
	sets := []topo.Set{topo.In, topo.NotDisjoint, topo.Set(1 + s.rng.Intn(255)), topo.Set(1 + s.rng.Intn(255))}
	for _, rel := range topo.All() {
		sets = append(sets, topo.NewSet(rel))
	}
	for ri, ref := range s.refs[:3] {
		s.ref = fmt.Sprintf(" ref %d", ri)
		refMBR, filters := ref.Bounds(), map[topo.Set]Result{}
		for _, rels := range sets {
			class := "relation " + rels.String()
			p := &Processor{Idx: tr.idx, Objects: s.polys}
			filt := streamEqualsBatch(s.t, s.label(tr, class), p, rels, refMBR)
			filters[rels] = filt
			cands := p.candidateConfigs(rels, false)
			if n := len(slices.DeleteFunc(slices.Clone(tr.live), func(r rtree.Record) bool { return !cands.Has(mbr.ConfigOf(r.Rect, refMBR)) })); filt.Stats.Candidates != n {
				s.fatalf(tr, class, "the filter retrieved %d candidates, ConfigOf admits %d", filt.Stats.Candidates, n)
			}
			node, leaf := p.filterPreds(p.testsFor(rels, false), refMBR)
			samePaths(s.t, s.label(tr, class), tr.idx, node, leaf)
			for _, p.SecondFilter = range []bool{false, true} {
				res, err := p.QuerySet(rels, ref)
				s.same(tr, class, res, err, func(r rtree.Record) bool { return rels.Has(topo.Relation(s.verdict(r.OID, ri))) })
				if res.Stats.NodeAccesses != filt.Stats.NodeAccesses {
					s.fatalf(tr, class, "refined %+v, filter only %+v", res.Stats, filt.Stats)
				}
				s.sum.DirectAccepts += res.Stats.DirectAccepts
				s.sum.HullResolved += res.Stats.HullResolved
				s.sum.FalseHits += res.Stats.FalseHits
			}
		}
		if in, cb := filters[topo.In], filters[topo.NewSet(topo.CoveredBy)]; !slices.Equal(in.Matches, cb.Matches) || in.Stats.NodeAccesses != cb.Stats.NodeAccesses {
			s.fatalf(tr, "relation in", "%d candidates in %d accesses, covered_by %d in %d", len(in.Matches), in.Stats.NodeAccesses, len(cb.Matches), cb.Stats.NodeAccesses)
		}
	}
}

// conjunctions runs a random conjunction over any two references and
// Table 4's example (inside a far reference ∧ overlap the fresh one),
// refined and streamed. Table 4 judges every pair of references,
// multi-polygons included, so the scan holds its short circuits too.
func (s *qsim) conjunctions(tr *qtree) {
	r := func() topo.Relation { return topo.All()[s.rng.Intn(8)] }
	for i, c := range [][4]int{{int(r()), s.rng.Intn(6), int(r()), s.rng.Intn(6)}, {int(topo.Inside), 4, int(topo.Overlap), 2}} {
		r1, q1, r2, q2 := topo.Relation(c[0]), s.refs[c[1]], topo.Relation(c[2]), s.refs[c[3]]
		s.ref = fmt.Sprintf(" %v ref %d ∧ %v ref %d", r1, c[1], r2, c[3])
		p := &Processor{Idx: tr.idx, Objects: s.polys}
		res, err := p.QueryConjunction(r1, q1, r2, q2)
		s.same(tr, "conjunction", res, err, func(r rtree.Record) bool { return s.verdict(r.OID, c[1]) == c[0] && s.verdict(r.OID, c[3]) == c[2] })
		if res.Stats.ShortCircuited && res.Stats.NodeAccesses != 0 || i == 1 && !res.Stats.ShortCircuited {
			s.fatalf(tr, "conjunction", "%+v", res.Stats)
		}
		// A multi-polygon reference takes the Section 7 rows, the streamed
		// (rectangle) terms do not: only simple ones are one descent.
		simple := !nonContiguous(false, []geom.Region{q1, q2}, p.Objects)
		s.sum.ShortCircuited = s.sum.ShortCircuited || res.Stats.ShortCircuited

		b1, b2, c1, c2 := q1.Bounds(), q2.Bounds(), p.candidateConfigs(topo.NewSet(r1), false), p.candidateConfigs(topo.NewSet(r2), false)
		var streamed []Match
		st, err := p.StreamConjunction(context.Background(), topo.NewSet(r1), b1, topo.NewSet(r2), b2, 0, func(m Match) bool { streamed = append(streamed, m); return true })
		keep := func(r rtree.Record) bool { return c1.Has(mbr.ConfigOf(r.Rect, b1)) && c2.Has(mbr.ConfigOf(r.Rect, b2)) }
		if st.ShortCircuited { // the references are rectangles: none stands in both relations
			keep = func(r rtree.Record) bool {
				return mbr.RelateRects(r.Rect, b1) == r1 && mbr.RelateRects(r.Rect, b2) == r2
			}
		}
		s.same(tr, "conjunction, streamed", Result{Matches: streamed, Stats: Stats{Candidates: len(streamed), RefinementTests: len(streamed)}}, err, keep)
		if st.ShortCircuited && st.NodeAccesses != 0 || !st.ShortCircuited && st.Explain != explainConjunction ||
			simple && !st.ShortCircuited && !res.Stats.ShortCircuited && (res.Stats.NodeAccesses != st.NodeAccesses || res.Stats.RefinementTests != len(streamed)) {
			s.fatalf(tr, "conjunction", "refined %+v, streamed %+v: not one descent", res.Stats, st)
		}
	}
}

// points runs the three location modes at a polygon's vertex (or a
// lattice point), a half-lattice point and a random point.
func (s *qsim) points(tr *qtree) {
	x, y := float64(s.rng.Intn(qsimGrid)), float64(s.rng.Intn(qsimGrid))
	pts := []geom.Point{s.at(x, y), s.at(x+0.5, y+0.5*float64(s.rng.Intn(2))), s.at(s.rng.Float64()*qsimGrid, s.rng.Float64()*qsimGrid)}
	if len(tr.live) > 0 {
		pts[0] = s.regions[tr.live[s.rng.Intn(len(tr.live))].OID].(geom.Polygon)[0]
	}
	p := &Processor{Idx: tr.idx, Objects: s.polys}
	for i, pt := range pts {
		s.ref = fmt.Sprintf(" at point %d %v", i, pt)
		for _, mode := range []string{"inside", "boundary", "either"} {
			want := map[string][]geom.PointLocation{"inside": {geom.PointInside}, "boundary": {geom.PointOnBoundary}}[mode]
			res, err := p.QueryPoint(pt, want...)
			s.same(tr, "point "+mode, res, err, func(r rtree.Record) bool {
				loc := s.regions[r.OID].LocatePoint(pt)
				return slices.Contains(want, loc) || want == nil && loc != geom.PointOutside
			})
		}
	}
}

// directions runs the 13 direction relations on the fresh reference's
// MBR, which the filter decides alone.
func (s *qsim) directions(tr *qtree) {
	q := s.refs[2].Bounds()
	s.ref = " ref 2"
	for _, rel := range direction.All() {
		res, err := (&Processor{Idx: tr.idx}).QueryDirection(rel, q)
		s.same(tr, "direction "+rel.String(), res, err, func(r rtree.Record) bool { return direction.Holds(rel, r.Rect, q) })
		if res.Stats.RefinementTests != 0 {
			s.fatalf(tr, "direction "+rel.String(), "%+v", res.Stats)
		}
	}
}

// nearest runs kNN at each of the step's points for k = 1, 4 and every
// registration, against a scan of the tree's registrations in the
// answer's order: distance, object id, rectangle.
func (s *qsim) nearest(tr *qtree) {
	for i, pt := range s.knn {
		s.ref = fmt.Sprintf(" at point %d %v", i, pt)
		all := make([]rtree.Neighbour, len(tr.live))
		for j, r := range tr.live {
			all[j] = rtree.Neighbour{Rect: r.Rect, OID: r.OID, Dist: r.Rect.DistToPoint(pt)}
		}
		slices.SortFunc(all, func(a, b rtree.Neighbour) int {
			return cmp.Or(cmp.Compare(a.Dist, b.Dist), cmp.Compare(a.OID, b.OID), cmp.Compare(a.Rect.Min.X, b.Rect.Min.X),
				cmp.Compare(a.Rect.Min.Y, b.Rect.Min.Y), cmp.Compare(a.Rect.Max.X, b.Rect.Max.X), cmp.Compare(a.Rect.Max.Y, b.Rect.Max.Y))
		})
		for _, k := range []int{1, 4, max(1, len(all))} {
			got, _, err := tr.idx.NearestCtx(context.Background(), pt, k)
			if want := all[:min(k, len(all))]; err != nil || !slices.Equal(got, want) {
				s.fatalf(tr, fmt.Sprintf("%d-NN", k), "%v (%v), the scan %v", got, err, want)
			}
		}
	}
}

// adoption holds the adopted polygon tree to the batch-built one its
// image was written from. Adopting keeps the tree's shape and both take
// every mutation, so they stay node for node equal: each relation's
// refined answer, in order, its Stats and its descent's TraversalStats,
// and each kNN answer and its TraversalStats, must be identical.
func (s *qsim) adoption() {
	src, adopted := s.tree("batch-built polygon"), s.tree("adopted polygon")
	ctx := context.Background()
	for ri, ref := range s.refs[:3] {
		s.ref = fmt.Sprintf(" ref %d", ri)
		for _, rel := range topo.All() {
			var res [2]Result
			var ts [2]rtree.TraversalStats
			for i, tr := range []*qtree{src, adopted} {
				p := &Processor{Idx: tr.idx, Objects: s.polys}
				var err, err2 error
				res[i], err = p.Query(rel, ref)
				node, leaf := p.filterPreds(p.testsFor(topo.NewSet(rel), false), ref.Bounds())
				ts[i], err2 = tr.idx.SearchPreds(ctx, node, leaf, func(rtree.Leaf) bool { return true })
				if err = cmp.Or(err, err2); err != nil {
					s.fatalf(tr, "adopted "+rel.String(), "%v", err)
				}
			}
			if res[0].Stats != res[1].Stats || !slices.Equal(res[0].Matches, res[1].Matches) || ts[0] != ts[1] {
				s.fatalf(adopted, "adopted "+rel.String(), "%d matches from %+v, %+v; the source %d from %+v, %+v",
					len(res[1].Matches), res[1].Stats, ts[1], len(res[0].Matches), res[0].Stats, ts[0])
			}
		}
	}
	for i, pt := range s.knn {
		s.ref = fmt.Sprintf(" at point %d %v", i, pt)
		for _, k := range []int{1, 4, max(1, len(src.live))} {
			want, wts, _ := src.idx.NearestCtx(ctx, pt, k)
			if got, ts, _ := adopted.idx.NearestCtx(ctx, pt, k); !slices.Equal(got, want) || ts != wts {
				s.fatalf(adopted, fmt.Sprintf("adopted %d-NN", k), "%+v, the source %+v", ts, wts)
			}
		}
	}
	s.ref = ""
}

// joins runs the join class on ten pairs of trees: each polygon tree
// with itself and the insert-built polygon tree with the batch-built
// one either way round, the polygon tree with the multi-polygon tree
// either way round and the multi-polygon tree with itself, and the
// multi-polygon tree with the strait, stored alone in a tree of its
// own, either way round.
func (s *qsim) joins() {
	poly, batch, adopted, multi := s.tree("insert-built polygon"), s.tree("batch-built polygon"), s.tree("adopted polygon"), s.tree("batch-built multi-polygon")
	oid := uint64(s.nextOID)
	s.nextOID++
	s.polys[oid] = s.refs[6].(geom.Polygon)
	s.regions[oid], s.rect[oid] = s.polys[oid], s.polys[oid].Bounds()
	strait := &qtree{name: "strait", layer: qPoly, live: []rtree.Record{{OID: oid, Rect: s.rect[oid]}}}
	strait.idx, _ = index.NewWithPageSize(s.kind, qsimPageSize)
	if err := strait.idx.Insert(s.rect[oid], oid); err != nil {
		s.fatalf(strait, "mutation", "%v", err)
	}
	for _, lr := range [][2]*qtree{{poly, poly}, {batch, batch}, {adopted, adopted}, {poly, batch}, {batch, poly}, {poly, multi}, {multi, poly}, {multi, multi}, {strait, multi}, {multi, strait}} {
		s.join(lr[0], lr[1])
	}
	s.ref = ""
}

// store is the tree's layer's store: the polygons' MapStore view, and
// the RegionStore for multi-polygons.
func (s *qsim) store(tr *qtree) ObjectStore {
	if tr.layer == qPoly {
		return s.polys
	}
	return s.regions
}

// join joins l with r under a random set (with disjoint one time in
// four), filter-only and refined, dropping and keeping a self-join's
// (o, o) pairs, on 1 and 4 workers. A refined join takes default
// options and each side's store, which pick its tables: the Section 7
// ones where a side holds multi-polygons. A filter-only join has no
// store, and states the same choice by JoinOptions.NonContiguous. The
// filter-only pairs must be the ordered pairs of registrations whose
// MBR configuration that table admits (an all-pairs mbr.ConfigOf scan),
// the refined ones those whose objects stand in a relation of the set,
// out of the filter-only pairs as candidates; 4 workers must give 1 worker's Stats, and every run read the same
// pages. An R+-tree must be refused.
func (s *qsim) join(l, r *qtree) {
	rels := topo.Set(2 + 2*s.rng.Intn(127))
	if s.rng.Intn(4) == 0 {
		rels = rels.Add(topo.Disjoint)
	}
	s.ref = " with the " + r.name + " tree"
	if !l.idx.CoveringNodeRects() {
		if CanJoin(l.idx, r.idx) == nil {
			s.fatalf(l, "join", "CanJoin accepted an R+-tree")
		}
		return
	}
	relaxed := l.layer != qPoly || r.layer != qPoly
	cands := mbr.CandidatesSet(rels)
	if relaxed {
		cands = mbr.CandidatesNonContiguousSet(rels)
	}
	var filtered, refined [][2]uint64
	for _, a := range l.live {
		for _, b := range r.live {
			p := [2]uint64{a.OID, b.OID}
			if cands.Has(mbr.ConfigOf(a.Rect, b.Rect)) {
				filtered = append(filtered, p)
			}
			rel, ok := s.pairs[p]
			if !ok {
				rel = topo.Disjoint
				if a.Rect.Intersects(b.Rect) {
					rel = relate(s.regions[a.OID], s.regions[b.OID])
				}
				s.pairs[p] = rel
			}
			if rels.Has(rel) {
				refined = append(refined, p)
			}
		}
	}
	byPair := func(a, b [2]uint64) int { return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1])) }
	var pages uint64   // what every run reads; a join reads both roots
	var filterOnly int // the pairs a filter-only run without self pairs gives, which a refined run tests
	for _, refine := range []bool{false, true} {
		for _, keep := range []bool{false, true} {
			if refine && keep { // the engine drops self pairs before step 4
				continue
			}
			want := filtered
			if refine {
				want = refined
			}
			if l == r && !keep {
				want = slices.DeleteFunc(slices.Clone(want), func(p [2]uint64) bool { return p[0] == p[1] })
			}
			slices.SortFunc(want, byPair)
			if !refine && !keep {
				filterOnly = len(want)
			}
			var serial Stats
			for _, workers := range []int{1, 4} {
				class := fmt.Sprintf("join %v, refined %v, self pairs %v, %d workers", rels, refine, keep, workers)
				opts := JoinOptions{NonContiguous: relaxed, KeepSelfPairs: keep, Workers: workers}
				if refine {
					opts = JoinOptions{LeftObjects: s.store(l), RightObjects: s.store(r), KeepSelfPairs: keep, Workers: workers}
				}
				res, err := JoinTopological(l.idx, r.idx, rels, opts)
				got := make([][2]uint64, len(res.Pairs))
				for i, p := range res.Pairs {
					got[i] = [2]uint64{p.LeftOID, p.RightOID}
				}
				slices.SortFunc(got, byPair)
				st, tested := res.Stats, res.Stats.DirectAccepts+res.Stats.RefinementTests
				if err != nil || !slices.Equal(got, want) || len(got) != st.Candidates-st.FalseHits || refine && st.Candidates != tested || refine && tested != filterOnly || !refine && tested != 0 {
					s.fatalf(l, class, "%d pairs from %+v, the scan %d; %v", len(got), st, len(want), err)
				}
				if workers == 1 {
					serial = st
				}
				if pages == 0 {
					pages = st.NodeAccesses
				}
				if st != serial || st.NodeAccesses != pages {
					s.fatalf(l, class, "%+v; on 1 worker %+v, and the first run read %d pages", st, serial, pages)
				}
				s.seen["join"] = s.seen["join"] || refine && len(got) > 0
			}
		}
	}
}
