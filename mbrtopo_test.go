package mbrtopo_test

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math/rand"
	"slices"
	"testing"
	"testing/iotest"

	"mbrtopo"
	"mbrtopo/internal/pagefile"
)

// TestFacadeEndToEnd exercises the public API exactly as the README
// shows it: build an index, store geometry, run queries of every kind.
func TestFacadeEndToEnd(t *testing.T) {
	idx, err := mbrtopo.NewRStar()
	if err != nil {
		t.Fatal(err)
	}
	store := mbrtopo.MapStore{}

	add := func(oid uint64, pg mbrtopo.Polygon) {
		t.Helper()
		store[oid] = pg
		if err := idx.Insert(pg.Bounds(), oid); err != nil {
			t.Fatal(err)
		}
	}
	district := mbrtopo.R(0, 0, 100, 100).Polygon()
	add(1, mbrtopo.R(10, 10, 20, 20).Polygon())   // inside district
	add(2, mbrtopo.R(0, 40, 15, 60).Polygon())    // covered_by (shares west edge)
	add(3, mbrtopo.R(90, 90, 120, 120).Polygon()) // overlaps
	add(4, mbrtopo.R(200, 200, 210, 210).Polygon())
	add(5, mbrtopo.R(100, 0, 150, 50).Polygon()) // meets east edge

	proc := &mbrtopo.Processor{Idx: idx, Objects: store}

	got, err := proc.Query(mbrtopo.Inside, district)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Matches) != 1 || got.Matches[0].OID != 1 {
		t.Fatalf("inside: %+v", got.Matches)
	}
	in, err := proc.QuerySet(mbrtopo.In, district)
	if err != nil {
		t.Fatal(err)
	}
	if len(in.Matches) != 2 {
		t.Fatalf("in: %+v", in.Matches)
	}
	conj, err := proc.QueryConjunction(mbrtopo.Inside, district, mbrtopo.Overlap, store[4])
	if err != nil {
		t.Fatal(err)
	}
	if !conj.Stats.ShortCircuited || len(conj.Matches) != 0 {
		t.Fatalf("conjunction with disjoint references should short-circuit: %+v", conj.Stats)
	}

	if r := mbrtopo.Relate(store[1], district); r != mbrtopo.Inside {
		t.Fatalf("Relate = %v", r)
	}
	if r := mbrtopo.RelateRects(mbrtopo.R(0, 0, 1, 1), mbrtopo.R(1, 0, 2, 1)); r != mbrtopo.Meet {
		t.Fatalf("RelateRects = %v", r)
	}
	if c := mbrtopo.ConfigOf(mbrtopo.R(10, 10, 20, 20), mbrtopo.R(0, 0, 100, 100)); c.String() != "R9_9" {
		t.Fatalf("ConfigOf = %v", c)
	}
	if s := mbrtopo.Compose(mbrtopo.Inside, mbrtopo.Disjoint); s != mbrtopo.NewSet(mbrtopo.Disjoint) {
		t.Fatalf("Compose = %v", s)
	}
	if r, err := mbrtopo.ParseRelation("covers"); err != nil || r != mbrtopo.Covers {
		t.Fatalf("ParseRelation: %v %v", r, err)
	}

	// kNN through the facade.
	nn, _, err := idx.NearestCtx(context.Background(), mbrtopo.Point{X: 15, Y: 15}, 2)
	if err != nil || len(nn) != 2 || nn[0].OID != 1 {
		t.Fatalf("Nearest: %v %v", nn, err)
	}
	// Direction retrieval.
	dres, err := proc.QueryDirection(mbrtopo.DirNorthEast, mbrtopo.R(150, 150, 180, 180))
	if err != nil || len(dres.Matches) != 1 || dres.Matches[0].OID != 4 {
		t.Fatalf("QueryDirection: %+v %v", dres.Matches, err)
	}
	if got := mbrtopo.DirectionTile(mbrtopo.R(0, 0, 1, 1), mbrtopo.R(5, 5, 6, 6)); got != mbrtopo.DirSouthWest {
		t.Fatalf("DirectionTile = %v", got)
	}

	// All three constructors produce working indexes.
	for _, mk := range []func() (mbrtopo.Index, error){mbrtopo.NewRTree, mbrtopo.NewRPlus, mbrtopo.NewRStar} {
		ix, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		if err := mbrtopo.Load(ix, []mbrtopo.Item{
			{Rect: mbrtopo.R(0, 0, 1, 1), OID: 1},
			{Rect: mbrtopo.R(2, 2, 3, 3), OID: 2},
		}); err != nil {
			t.Fatal(err)
		}
		if ix.Len() != 2 {
			t.Fatalf("%s: Len = %d", ix.Name(), ix.Len())
		}
	}
	if _, err := mbrtopo.NewIndex(mbrtopo.KindRPlus, 1024); err != nil {
		t.Fatal(err)
	}
}

// TestFacadePackingAndPersistence drives the bulk-load and persistence
// APIs through the facade.
func TestFacadePackingAndPersistence(t *testing.T) {
	items := []mbrtopo.Item{
		{Rect: mbrtopo.R(0, 0, 2, 2), OID: 1},
		{Rect: mbrtopo.R(3, 3, 5, 5), OID: 2},
		{Rect: mbrtopo.R(6, 0, 8, 2), OID: 3},
	}
	packed, err := mbrtopo.NewPackedIndex(mbrtopo.KindRStar, 512, items)
	if err != nil || packed.Len() != 3 {
		t.Fatalf("packed: %v %v", packed, err)
	}

	idx, err := mbrtopo.NewIndex(mbrtopo.KindRTree, 512)
	if err != nil {
		t.Fatal(err)
	}
	if err := mbrtopo.Load(idx, items); err != nil {
		t.Fatal(err)
	}
	var image bytes.Buffer
	if err := mbrtopo.SaveIndex(idx, &image); err != nil {
		t.Fatal(err)
	}
	back, err := mbrtopo.OpenIndex(mbrtopo.KindRTree, 512, &image)
	if err != nil || back.Len() != 3 {
		t.Fatalf("reopened: %v %v", back, err)
	}
	nn, _, err := back.NearestCtx(context.Background(), mbrtopo.Point{X: 7, Y: 1}, 1)
	if err != nil || len(nn) != 1 || nn[0].OID != 3 {
		t.Fatalf("reopened nearest: %v %v", nn, err)
	}
}

// TestSaveOpenIndex: SaveIndex → OpenIndex gives back the saved tree,
// not a rebuild of its entries — the same answers in the same order for
// the same node accesses, on every kind and on a packed tree — and the
// reopened index is an ordinary mutable one. Damaged bytes and an image
// of another kind are refused.
func TestSaveOpenIndex(t *testing.T) {
	const pageSize = 512
	rng := rand.New(rand.NewSource(20))
	items := make([]mbrtopo.Item, 600)
	for i := range items {
		x, y := rng.Float64()*90, rng.Float64()*90
		items[i] = mbrtopo.Item{Rect: mbrtopo.R(x, y, x+0.5+rng.Float64()*6, y+0.5+rng.Float64()*6), OID: uint64(i + 1)}
	}
	relations := []mbrtopo.Relation{mbrtopo.Disjoint, mbrtopo.Meet, mbrtopo.Equal, mbrtopo.Overlap,
		mbrtopo.Contains, mbrtopo.Inside, mbrtopo.Covers, mbrtopo.CoveredBy}
	windows := []mbrtopo.Rect{mbrtopo.R(30, 30, 60, 60), mbrtopo.R(0, 0, 12, 12), items[7].Rect, mbrtopo.R(200, 200, 210, 210)}

	build := map[string]func() (mbrtopo.IndexKind, mbrtopo.Index, error){
		"packed R*-tree": func() (mbrtopo.IndexKind, mbrtopo.Index, error) {
			idx, err := mbrtopo.NewPackedIndex(mbrtopo.KindRStar, pageSize, items)
			return mbrtopo.KindRStar, idx, err
		},
	}
	for _, kind := range []mbrtopo.IndexKind{mbrtopo.KindRTree, mbrtopo.KindRPlus, mbrtopo.KindRStar} {
		build[kind.String()] = func() (mbrtopo.IndexKind, mbrtopo.Index, error) {
			idx, err := mbrtopo.NewIndex(kind, pageSize)
			if err == nil {
				err = mbrtopo.Load(idx, items)
			}
			return kind, idx, err
		}
	}
	for name, mk := range build {
		t.Run(name, func(t *testing.T) {
			kind, idx, err := mk()
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := mbrtopo.SaveIndex(idx, &buf); err != nil {
				t.Fatal(err)
			}
			image := buf.Bytes()
			back, err := mbrtopo.OpenIndex(kind, pageSize, bytes.NewReader(image))
			if err != nil {
				t.Fatal(err)
			}
			if back.Len() != idx.Len() || back.Height() != idx.Height() || back.Name() != idx.Name() {
				t.Fatalf("reopened %s len %d height %d, saved %s len %d height %d",
					back.Name(), back.Len(), back.Height(), idx.Name(), idx.Len(), idx.Height())
			}
			was, now := &mbrtopo.Processor{Idx: idx}, &mbrtopo.Processor{Idx: back}
			for _, rel := range relations {
				for _, w := range windows {
					want, err := was.QueryMBR(rel, w)
					if err != nil {
						t.Fatal(err)
					}
					got, err := now.QueryMBR(rel, w)
					if err != nil {
						t.Fatal(err)
					}
					if got.Stats.NodeAccesses != want.Stats.NodeAccesses || !slices.Equal(got.Matches, want.Matches) {
						t.Fatalf("%v %v: reopened %d matches in %d accesses, saved %d in %d", rel, w,
							len(got.Matches), got.Stats.NodeAccesses, len(want.Matches), want.Stats.NodeAccesses)
					}
				}
			}
			p := mbrtopo.Point{X: 41, Y: 17}
			wantNN, wantStats, err := idx.NearestCtx(context.Background(), p, 9)
			if err != nil {
				t.Fatal(err)
			}
			gotNN, gotStats, err := back.NearestCtx(context.Background(), p, 9)
			if err != nil || gotStats != wantStats || !slices.Equal(gotNN, wantNN) {
				t.Fatalf("kNN: reopened %v %+v (%v), saved %v %+v", gotNN, gotStats, err, wantNN, wantStats)
			}

			// The reopened index takes writes; the saved one does not see them.
			island := mbrtopo.R(300, 300, 301, 301)
			if err := back.Insert(island, 9001); err != nil {
				t.Fatal(err)
			}
			if err := back.Delete(items[0].Rect, items[0].OID); err != nil {
				t.Fatal(err)
			}
			res, err := now.QueryMBR(mbrtopo.Equal, island)
			if err != nil || len(res.Matches) != 1 || res.Matches[0].OID != 9001 {
				t.Fatalf("reopened index after insert: %+v %v", res.Matches, err)
			}
			if back.Len() != len(items) || idx.Len() != len(items) {
				t.Fatalf("after insert + delete: reopened holds %d, saved %d, want %d both", back.Len(), idx.Len(), len(items))
			}
			if res, err = was.QueryMBR(mbrtopo.Equal, island); err != nil || len(res.Matches) != 0 {
				t.Fatalf("the saved index sees the reopened one's insert: %+v %v", res.Matches, err)
			}

			damaged := bytes.Clone(image)
			damaged[len(damaged)/2] ^= 0x40
			if _, err := mbrtopo.OpenIndex(kind, pageSize, bytes.NewReader(damaged)); !errors.Is(err, pagefile.ErrCorrupt) {
				t.Fatalf("flipped byte: %v, want pagefile.ErrCorrupt", err)
			}
			other := mbrtopo.KindRTree
			if kind == other {
				other = mbrtopo.KindRStar
			}
			if _, err := mbrtopo.OpenIndex(other, pageSize, bytes.NewReader(image)); err == nil {
				t.Fatalf("a %s image opened as a %s", idx.Name(), other)
			}
		})
	}
}

// TestOpenIndexReadError: OpenIndex decodes the image as it reads it, so
// a reader that fails part way — in the header, in the node section, or
// where the image should end — fails the open with that reader's error,
// wrapped, not with a corruption of the bytes that did arrive.
func TestOpenIndexReadError(t *testing.T) {
	idx, err := mbrtopo.NewIndex(mbrtopo.KindRStar, 512)
	if err != nil {
		t.Fatal(err)
	}
	for i := range 300 {
		x, y := float64(i%20)*5, float64(i/20)*5
		if err := idx.Insert(mbrtopo.R(x, y, x+3, y+3), uint64(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := mbrtopo.SaveIndex(idx, &buf); err != nil {
		t.Fatal(err)
	}
	image := buf.Bytes()
	broken := errors.New("disk went away")
	for _, n := range []int{0, 100, 128, 500, len(image) / 2, len(image) - 1, len(image)} {
		r := io.MultiReader(bytes.NewReader(image[:n]), iotest.ErrReader(broken))
		back, err := mbrtopo.OpenIndex(mbrtopo.KindRStar, 512, r)
		if !errors.Is(err, broken) || errors.Is(err, pagefile.ErrCorrupt) || back != nil {
			t.Errorf("reader failing after %d of %d bytes: OpenIndex = %v, %v; want the reader's error, wrapped", n, len(image), back, err)
		}
	}
}

// TestFacadeMultiAndLines drives the Section 7 APIs end to end.
func TestFacadeMultiAndLines(t *testing.T) {
	idx, err := mbrtopo.NewRTree()
	if err != nil {
		t.Fatal(err)
	}
	store := mbrtopo.RegionStore{}
	country := mbrtopo.MultiPolygon{
		mbrtopo.R(0, 0, 4, 4).Polygon(),
		mbrtopo.R(6, 0, 9, 4).Polygon(),
	}
	store[1] = country
	if err := idx.Insert(country.Bounds(), 1); err != nil {
		t.Fatal(err)
	}
	sea := mbrtopo.R(4, 0, 6, 4).Polygon() // the strait between the parts
	if got := mbrtopo.RelateRegions(country, sea); got != mbrtopo.Meet {
		t.Fatalf("RelateRegions = %v", got)
	}
	proc := &mbrtopo.Processor{Idx: idx, Objects: store}
	res, err := proc.Query(mbrtopo.Meet, sea)
	if err != nil || len(res.Matches) != 1 {
		t.Fatalf("meet query: %+v %v", res.Matches, err)
	}

	roads := mbrtopo.LineStore{7: mbrtopo.PolyLine{{X: -1, Y: 2}, {X: 10, Y: 2.5}}}
	lineIdx, err := mbrtopo.NewRTree()
	if err != nil {
		t.Fatal(err)
	}
	if err := lineIdx.Insert(roads[7].Bounds(), 7); err != nil {
		t.Fatal(err)
	}
	lp := &mbrtopo.Processor{Idx: lineIdx}
	lres, err := lp.QueryLine(mbrtopo.LRCross, mbrtopo.R(0, 0, 4, 4).Polygon(), roads)
	if err != nil || len(lres.Matches) != 1 {
		t.Fatalf("line query: %+v %v", lres.Matches, err)
	}
	if got := mbrtopo.RelateLineRegion(roads[7], sea); got != mbrtopo.LRCross {
		t.Fatalf("RelateLineRegion = %v", got)
	}
	if got := mbrtopo.RelatePointRegion(mbrtopo.Point{X: 5, Y: 2}, sea); got != mbrtopo.PointInside {
		t.Fatalf("RelatePointRegion = %v", got)
	}
}
