package server

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"testing"

	"mbrtopo/internal/geom"
	"mbrtopo/internal/index"
	"mbrtopo/internal/query"
	"mbrtopo/internal/rtree"
)

// FuzzWireDecode feeds arbitrary bytes through the wire-decoding paths
// the handlers run on request bodies: the /v1/bulk NDJSON line loop,
// and the /v1/query and /v1/insert JSON bodies. The property is that
// decoding never panics and the validating helpers are self-consistent
// — RectFromWire only returns valid rectangles (and round-trips them
// through RectToWire bit-exactly), ParseRelationSet never returns an
// empty set without an error.
func FuzzWireDecode(f *testing.F) {
	f.Add([]byte(`{"oid":1,"rect":[0,0,1,1]}`))
	f.Add([]byte("{\"oid\":1,\"rect\":[0,0,1,1]}\n{\"oid\":2,\"rect\":[2,2,3,3]}\n"))
	f.Add([]byte(`{"oid":2,"rect":[0,0]}`))
	f.Add([]byte(`{"oid":3,"rect":[5,5,1,1]}`))
	f.Add([]byte(`{"index":"a","relations":["overlap"],"ref":[0,0,5,5],"limit":3}`))
	f.Add([]byte(`{"relations":["in","window","meet"],"ref":[1,1,0,0]}`))
	f.Add([]byte(`{"relations":[],"ref":[0,0,1,1]}`))
	f.Add([]byte(`{"oid":18446744073709551615,"rect":[-1e308,-1e308,1e308,1e308]}`))
	f.Add([]byte(`not json at all`))
	f.Fuzz(func(t *testing.T, data []byte) {
		// The /v1/bulk decode loop: NDJSON BulkLines until the first
		// decode error (handleBulk rejects the request there).
		dec := json.NewDecoder(bytes.NewReader(data))
		for {
			var line BulkLine
			if err := dec.Decode(&line); err != nil {
				break
			}
			rect, err := RectFromWire(line.Rect)
			if err != nil {
				continue
			}
			if !rect.Valid() {
				t.Fatalf("RectFromWire(%v) returned invalid rect without error", line.Rect)
			}
			// JSON numbers are finite, so a valid rect round-trips
			// bit-exactly.
			w := RectToWire(rect)
			for i := range w {
				if w[i] != line.Rect[i] {
					t.Fatalf("rect %v round-tripped as %v", line.Rect, w)
				}
			}
		}

		// The /v1/query body.
		var qr QueryRequest
		if err := json.Unmarshal(data, &qr); err == nil {
			set, err := ParseRelationSet(qr.Relations)
			if err == nil && set.IsEmpty() {
				t.Fatalf("ParseRelationSet(%v) returned empty set without error", qr.Relations)
			}
			if _, err := RectFromWire(qr.Ref); err == nil && len(qr.Ref) != 4 {
				t.Fatalf("RectFromWire accepted %d coordinates", len(qr.Ref))
			}
		}

		// The /v1/insert and /v1/delete body.
		var ur UpdateRequest
		if err := json.Unmarshal(data, &ur); err == nil {
			if rect, err := RectFromWire(ur.Rect); err == nil && !rect.Valid() {
				t.Fatalf("RectFromWire(%v) returned invalid rect without error", ur.Rect)
			}
		}
	})
}

// FuzzLineEncode pins lineWriter's hand renderer to the wire
// definition: for arbitrary oids and float64 bit patterns the rendered
// match and pair lines equal json.Marshal of QueryLine and JoinLine
// byte for byte, and a coordinate json.Marshal refuses (NaN, ±Inf)
// stops the writer instead of reaching the wire.
func FuzzLineEncode(f *testing.F) {
	bits := math.Float64bits
	f.Add(uint64(0), uint64(1), bits(0), bits(math.Copysign(0, -1)), bits(1), bits(-1))
	f.Add(uint64(math.MaxUint64), uint64(1<<53), bits(5e-324), bits(2.2250738585072009e-308), bits(1e-7), bits(1e-6))
	f.Add(uint64(42), uint64(7), bits(999999999999999868928), bits(1e21), bits(math.MaxFloat64), bits(-math.MaxFloat64))
	f.Add(uint64(1995), uint64(1301), bits(0.1+0.2), bits(123456789), bits(1e20), bits(-9.5e-7))
	f.Add(uint64(3), uint64(4), bits(100.25), bits(1e-9), bits(1.5e-10), bits(1e100))
	f.Add(uint64(5), uint64(6), bits(math.NaN()), bits(math.Inf(1)), bits(math.Inf(-1)), bits(0.5))
	f.Fuzz(func(t *testing.T, oid, oid2, a, b, c, d uint64) {
		r := geom.R(math.Float64frombits(a), math.Float64frombits(b), math.Float64frombits(c), math.Float64frombits(d))
		p := query.JoinPair{LeftOID: oid, RightOID: oid2, LeftRect: r, RightRect: geom.R(r.Max.Y, r.Max.X, r.Min.Y, r.Min.X)}
		lr, rr := RectToWire(p.LeftRect), RectToWire(p.RightRect)
		wantMatch, err := json.Marshal(QueryLine{OID: &oid, Rect: &lr})
		wantPair, err2 := json.Marshal(JoinLine{LeftOID: &p.LeftOID, RightOID: &p.RightOID, LeftRect: &lr, RightRect: &rr})
		if err != nil || err2 != nil {
			lw := &lineWriter{}
			if lw.match(query.Match{OID: oid, Rect: r}) || lw.pair(p) || lw.err == nil || len(lw.buf) != 0 {
				t.Fatalf("json.Marshal refuses %v (%v) but the writer rendered %q", r, err, lw.buf)
			}
			return
		}
		if got := appendMatchLine(nil, query.Match{OID: oid, Rect: r}); !bytes.Equal(got, append(wantMatch, '\n')) {
			t.Fatalf("match line\n got %q\nwant %q", got, wantMatch)
		}
		if got := appendPairLine(nil, p); !bytes.Equal(got, append(wantPair, '\n')) {
			t.Fatalf("pair line\n got %q\nwant %q", got, wantPair)
		}

		// The same lines through a leaf's kept text: a one-leaf arena tree
		// holding r answers three times — the entry is rendered the slow
		// way once, then the leaf renders itself — and the line made of
		// its text is the same bytes. A tree stores only rectangles with
		// Min < Max, so the coordinates are put in order first.
		r = geom.R(min(r.Min.X, r.Max.X), min(r.Min.Y, r.Max.Y), max(r.Min.X, r.Max.X), max(r.Min.Y, r.Max.Y))
		if !r.Valid() {
			return
		}
		idx, err := index.New(index.KindRTree)
		if err != nil {
			t.Fatal(err)
		}
		if err := idx.Insert(r, oid); err != nil {
			t.Fatal(err)
		}
		var m query.Match
		all := func(geom.Rect) bool { return true }
		for i := 0; i < 3; i++ {
			if _, err := idx.SearchHits(context.Background(), all, all, func(h rtree.Hit) bool {
				m = query.Match{OID: h.OID, Rect: h.Rect, Text: h.Text()}
				return true
			}); err != nil {
				t.Fatal(err)
			}
		}
		lr = RectToWire(r)
		wantMatch, err = json.Marshal(QueryLine{OID: &oid, Rect: &lr})
		if err != nil {
			// ±Inf orders like any number but has no wire form: the leaf
			// keeps no text for the entry and the writer stops.
			lw := &lineWriter{}
			if m.Text != "" || lw.match(m) || lw.err == nil {
				t.Fatalf("json.Marshal refuses %v (%v) but the leaf kept %q for it", r, err, m.Text)
			}
			return
		}
		if m.Text == "" {
			t.Fatalf("the leaf holding %v has not earned its text after three answers", r)
		}
		if got := appendMatchLine(nil, m); !bytes.Equal(got, append(wantMatch, '\n')) {
			t.Fatalf("match line from the leaf's text\n got %q\nwant %q", got, wantMatch)
		}
		p = query.JoinPair{LeftOID: oid, RightOID: oid, LeftRect: r, RightRect: r, LeftText: m.Text, RightText: m.Text}
		wantPair, err = json.Marshal(JoinLine{LeftOID: &oid, RightOID: &oid, LeftRect: &lr, RightRect: &lr})
		if err != nil {
			t.Fatal(err)
		}
		if got := appendPairLine(nil, p); !bytes.Equal(got, append(wantPair, '\n')) {
			t.Fatalf("pair line from the leaf's text\n got %q\nwant %q", got, wantPair)
		}
	})
}
