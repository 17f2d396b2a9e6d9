package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"
	"time"

	"mbrtopo/internal/geom"
	"mbrtopo/internal/index"
	"mbrtopo/internal/query"
	"mbrtopo/internal/rtree"
)

// FuzzWireDecode holds every request reader to the encoding/json call
// it stands for. On the same bytes behind an http.MaxBytesReader,
// readBody with each of the QueryRequest, JoinRequest, WatchRequest and
// UpdateRequest readers must accept exactly what
// json.NewDecoder(...).Decode accepts, and decode a value
// reflect.DeepEqual to its; readBulk must return the records a
// json.Decoder loop over the body builds, or fail at the same line. Every body is read
// under the handlers' caps and under two caps that cut it short, whole
// and one byte a read. Every rectangle RectFromWire accepts, from a
// bulk line or an UpdateRequest, is valid and round-trips through
// RectToWire bit for bit.
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
	// Keys folded as encoding/json folds them: K (the Kelvin sign) and
	// ſ (long s) read as k and s, ı (dotless i) not as i.
	f.Add([]byte(`{"Relations":["overlap"],"REF":[0,0,1,1],"limiT":2,"Timeout_MS":5,"expla\u0131n":true,"\u212aeep_self_pairs":true,"non_contiguou\u017f":true,"OID":4,"Rect":[0,0,2,2],"bUFFER":9,"Left":"a","RIGHT":"b"}`))
	f.Add([]byte("{\"Index\":\"x\",\"\xe2\x84\xaaeep_self_pairs\":true,\"\xc5\xbfOMETHING\":1}"))
	// Escapes, surrogates and invalid UTF-8.
	f.Add([]byte(`{"relations":["\u006fverlap","cover\u0073"],"index":"\ud83d\ude00\ud800x\udc00\ud800\ud800\u0041","ref":[0,0,1,1]}`))
	f.Add([]byte(`{"index":"\b\f\n\r\t\/\\\"<>&\u2028","left":"\u00e9\uFFFD"}`))
	f.Add([]byte("{\"index\":\"\xff\xfe\xed\xa0\x80\",\"relations\":[\"ov\xc3\"],\"\xff\":1}"))
	f.Add([]byte(`{"index":"\x"}`))
	f.Add([]byte(`{"index":"\u12"}`))
	f.Add([]byte("{\"index\":\"a\tb\"}"))
	// null: a scalar keeps its value, a slice becomes nil, and a null
	// element keeps what that element held.
	f.Add([]byte(`{"relations":null,"ref":[1,2,3,4],"limit":7,"limit":null,"explain":null,"index":null}`))
	f.Add([]byte(`{"ref":[1,2,3,4],"ref":[9],"ref":[null,null,null],"relations":["a","b"],"relations":[null],"relations2":[],"ref2":null}`))
	f.Add([]byte(`null`))
	f.Add([]byte(" \n null \t"))
	f.Add([]byte(`nullnull`))
	f.Add([]byte(`null}`))
	// Duplicates and trailing bytes.
	f.Add([]byte(`{"oid":1,"oid":2,"rect":[0,0,1,1],"rect":[0,0,3,3]} trailing garbage {`))
	f.Add([]byte(`{"oid":1,"rect":[0,0,1,1]}{"oid":2,"rect":[0,0,2,2]}`))
	f.Add([]byte("{\"oid\":1,\"rect\":[0,0,1,1]}\n\n \t\r{\"oid\":2,\"rect\":[1,1,2,2]}\n  "))
	// Numbers: overflow, underflow, -0, and fractions or exponents into
	// an integer.
	f.Add([]byte(`{"ref":[1e400,0,1,1]}`))
	f.Add([]byte(`{"ref":[1e-400,-0,1E+2,0.5e-1]}`))
	f.Add([]byte(`{"oid":-0,"rect":[0,0,1,1]}`))
	f.Add([]byte(`{"oid":5,"rect":[-0,-0,5e-324,1e-300]}`))
	f.Add([]byte(`{"limit":-0,"timeout_ms":-9223372036854775808}`))
	f.Add([]byte(`{"limit":1.0}`))
	f.Add([]byte(`{"limit":1e2}`))
	f.Add([]byte(`{"timeout_ms":9223372036854775808}`))
	f.Add([]byte(`{"oid":18446744073709551616}`))
	f.Add([]byte(`{"limit":01}`))
	f.Add([]byte(`{"limit":-}`))
	f.Add([]byte(`{"ref":[1.,2]}`))
	// Type mismatches, unknown fields and malformed JSON.
	f.Add([]byte(`{"limit":"3","explain":1,"relations":"overlap","index":5}`))
	f.Add([]byte(`{"zz":{"a":[1,{"b":null}],"c":"\u0000"},"yy":[true,false,-1.5e3],"oid":1,"rect":[0,0,1,1]}`))
	f.Add([]byte(`{"zz":[1,]}`))
	f.Add([]byte(`{"zz":{"a":tru}}`))
	f.Add([]byte(`{"oid":1,}`))
	f.Add([]byte(`[1]`))
	f.Add([]byte(`"x"`))
	f.Add([]byte(`12`))
	f.Add([]byte(`true`))
	f.Add([]byte(``))
	f.Add([]byte(" \n\t "))
	// The shortcut's edges: bulk bodies that leave it mid-body, a last
	// line with no newline, two values on a line, an empty array, and a
	// canonical query the first read of the body does not reach.
	f.Add([]byte("{\"oid\":1,\"rect\":[0,0,1,1]}\n{\"\\u006fid\":2,\"rect\":[0,0,2,2]}\n{\"oid\":3,\"rect\":[0,0,3,3]}\n"))
	f.Add([]byte("{\"oid\":1,\"rect\":[0,0,1,1]}\n{\"oid\":2,\"zz\":0,\"rect\":[0,0,2,2]}\n{\"oid\":3,\"rect\":[0,0,3,3]}\n{\"oid\":4,\"rect\":[0,0,4,4]}\n"))
	f.Add([]byte("{\"oid\":1,\"rect\":[0,0,1,1]}\n{\"oid\":null,\"rect\":[0,0,2,2]}\n{\"oid\":3,\"rect\":[0,0,3,3]}\n"))
	f.Add([]byte("{\"oid\":1,\"rect\":[0,0,1,1]}\n{\"oid\":2,\"rect\":[2,2,3,3]}"))
	f.Add([]byte("{\"oid\":1,\"rect\":[0,0,1,1]} {\"oid\":2,\"rect\":[0,0,2,2]}\n{\"oid\":3,\"rect\":[0,0,3,3]}\n"))
	f.Add([]byte(`{"oid":1,"rect":[]}`))
	f.Add([]byte("{\"index\":\"a\xffb\",\"relations\":[\"ov\xc3\"],\"ref\":[0,0,1,1]}"))
	f.Add([]byte(strings.Repeat(" ", firstRead+100) + `{"relations":["overlap"],"ref":[0,0,5,5]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, limit := range []int64{maxBodyBytes, int64(len(data) - 1), int64(len(data) / 2)} {
			if limit < 0 {
				continue
			}
			diffRead[QueryRequest](t, data, limit)
			diffRead[JoinRequest](t, data, limit)
			diffRead[WatchRequest](t, data, limit)
			diffRead[UpdateRequest](t, data, limit)
		}
		for _, limit := range []int64{maxBulkBytes, int64(len(data) - 1), int64(len(data) / 2)} {
			if limit >= 0 {
				diffBulk(t, data, limit)
			}
		}

		// The helpers the handlers call next stay self-consistent.
		var qr QueryRequest
		if readBody(httptest.NewRecorder(), body(data), maxBodyBytes, qr.read, qr.decode) == nil {
			set, err := ParseRelationSet(qr.Relations)
			if err == nil && set.IsEmpty() {
				t.Fatalf("ParseRelationSet(%v) returned empty set without error", qr.Relations)
			}
			if _, err := RectFromWire(qr.Ref); err == nil && len(qr.Ref) != 4 {
				t.Fatalf("RectFromWire accepted %d coordinates", len(qr.Ref))
			}
		}
		var ur UpdateRequest
		if readBody(httptest.NewRecorder(), body(data), maxBodyBytes, ur.read, ur.decode) == nil {
			if rect, err := RectFromWire(ur.Rect); err == nil {
				checkWireRect(t, rect, ur.Rect)
			}
		}
	})
}

// TestReadBodyDepth reads values nested at encoding/json's depth limit
// and one past it, which are too long to seed FuzzWireDecode with.
func TestReadBodyDepth(t *testing.T) {
	const maxDepth = 10000 // encoding/json's nesting limit
	for _, depth := range []int{maxDepth - 1, maxDepth} {
		for _, open := range []string{"[", `{"a":`} {
			close := "]"
			if open != "[" {
				close = "}"
			}
			data := []byte(`{"zz":` + strings.Repeat(open, depth) + "1" + strings.Repeat(close, depth) + `}`)
			err := diffRead[QueryRequest](t, data, maxBodyBytes)
			if (err == nil) != (depth < maxDepth) {
				t.Errorf("%d levels under the body's object: %v", depth, err)
			}
			diffBulk(t, data, maxBulkBytes)
		}
	}
}

// TestReadBodyTrickle reads bodies of about 1 MiB whole and one byte a
// read, as a slow client sends them, against encoding/json.
func TestReadBodyTrickle(t *testing.T) {
	// Brackets, quotes and backslashes inside strings do not end a value.
	text := strings.Repeat(`[{\"}]\\ é`, 30<<10)
	query := []byte(`{"zz":[` + strings.Repeat("0, ", 100<<10) + `{"a":"]}"}],"ref":[0,0,1,1],"index":"` + text + `"}`)
	if err := diffRead[QueryRequest](t, query, maxBodyBytes); err != nil {
		t.Fatalf("%d-byte query: %v", len(query), err)
	}

	// Whitespace past the cap: the value never starts within it.
	blank := []byte(strings.Repeat(" \n", maxBodyBytes/2+1) + `{"oid":1,"rect":[0,0,1,1]}`)
	var tooBig *http.MaxBytesError
	if err := diffRead[UpdateRequest](t, blank, maxBodyBytes); !errors.As(err, &tooBig) {
		t.Fatalf("value after %d bytes of whitespace: %v, want the cap's error", len(blank), err)
	}

	// /v1/bulk: a line longer than the line buffer among small ones.
	var bulk bytes.Buffer
	for oid := 1; oid <= 100; oid++ {
		fmt.Fprintf(&bulk, "{\"oid\":%d,\"rect\":[0,0,%d,1]}\n", oid, oid)
		if oid == 50 {
			fmt.Fprintf(&bulk, "  {\"zz\":[%s[]],\"oid\":0,\"rect\":[0,0,1,1]}\n\n", strings.Repeat("[1,\"]\"],", 100<<10))
		}
	}
	diffBulk(t, bulk.Bytes(), maxBulkBytes)
	if recs, err := readBulk(httptest.NewRecorder(), body(bulk.Bytes()), maxBulkBytes); err != nil || len(recs) != 101 {
		t.Fatalf("%d-byte bulk body: %d records, %v; want 101", bulk.Len(), len(recs), err)
	}
}

// TestShortcutTaken pins that canonical bodies, json.Marshal of the
// wire structs, are read by the shortcut, which FuzzWireDecode cannot
// tell from one that always declines: reading one costs the
// MaxBytesReader and the strings and slices decoded, and encoding/json
// costs more on the same body.
func TestShortcutTaken(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops items at random")
	}
	w := discard{header: make(http.Header)}
	rd := bytes.NewReader(nil)
	src := io.NopCloser(rd)
	count := func(data []byte, read func() error) float64 {
		return testing.AllocsPerRun(100, func() {
			rd.Reset(data)
			if err := read(); err != nil {
				t.Fatal(err)
			}
		})
	}
	ref := []float64{0.5, -1, 300, 1e-7}
	var q QueryRequest
	var j JoinRequest
	var wr WatchRequest
	var u UpdateRequest
	for _, c := range []struct {
		sent   any
		got    any
		allocs float64 // the MaxBytesReader, and each string and slice decoded
		read   func([]byte) int
		decode func(*json.Decoder) error
	}{
		{QueryRequest{Index: "main", Relations: []string{"overlap", "meet"}, Ref: ref, Limit: 3, TimeoutMS: 500,
			Relations2: []string{"inside"}, Ref2: []float64{-0.25, 2, 3e21, 4}, Explain: true}, &q, 9, q.read, q.decode},
		{JoinRequest{Left: "main", Right: "second", Relations: []string{"covers"}, NonContiguous: true,
			KeepSelfPairs: true, Limit: 9, TimeoutMS: 1}, &j, 5, j.read, j.decode},
		{WatchRequest{Index: "main", Relations: []string{"inside"}, Ref: ref, Buffer: 8, TimeoutMS: 2}, &wr, 5, wr.read, wr.decode},
		{UpdateRequest{Index: "main", OID: math.MaxUint64, Rect: ref}, &u, 3, u.read, u.decode},
	} {
		data, err := json.Marshal(c.sent)
		if err != nil {
			t.Fatal(err)
		}
		short := count(data, func() error { return readBody(w, src, maxBodyBytes, c.read, c.decode) })
		if got := reflect.ValueOf(c.got).Elem().Interface(); !reflect.DeepEqual(got, c.sent) {
			t.Fatalf("%s read as %#v", data, got)
		}
		v := reflect.New(reflect.TypeOf(c.sent)).Interface()
		decoded := count(data, func() error { return json.NewDecoder(http.MaxBytesReader(w, src, maxBodyBytes)).Decode(v) })
		if short > c.allocs || decoded <= c.allocs {
			t.Errorf("%s: %v allocations read, want at most %v; encoding/json %v", data, short, c.allocs, decoded)
		}
	}

	var bulk []byte
	for oid := 1; oid <= 3; oid++ {
		bulk = append(bulk, fmt.Sprintf("{\"oid\":%d,\"rect\":[0,0,%d,1.5]}\n", oid, oid)...)
	}
	// The MaxBytesReader, the bufio.Reader and its buffer, three
	// rectangles and three growths of the record slice.
	const bulkAllocs = 9
	short := count(bulk, func() error {
		recs, err := readBulk(w, src, maxBulkBytes)
		if err == nil && len(recs) != 3 {
			err = fmt.Errorf("%d records", len(recs))
		}
		return err
	})
	decoded := count(bulk, func() error {
		dec := json.NewDecoder(http.MaxBytesReader(w, src, maxBulkBytes))
		for {
			var line BulkLine
			if err := dec.Decode(&line); err != nil {
				return nil
			}
		}
	})
	if short > bulkAllocs || decoded <= bulkAllocs {
		t.Errorf("bulk body: %v allocations read, want at most %v; encoding/json %v", short, bulkAllocs, decoded)
	}
}

func body(data []byte) io.ReadCloser { return io.NopCloser(bytes.NewReader(data)) }

// trickle hands data over one byte a read, as a slow client's body
// arrives, so that the readers meet every value cut short.
func trickle(data []byte) io.ReadCloser {
	return io.NopCloser(iotest.OneByteReader(bytes.NewReader(data)))
}

// checkWireRect asserts what RectFromWire promises of a rectangle it
// accepted from vals: it is valid, and RectToWire gives vals back bit
// for bit (JSON numbers are finite, so nothing is lost).
func checkWireRect(t *testing.T, rect geom.Rect, vals []float64) {
	t.Helper()
	if !rect.Valid() {
		t.Fatalf("RectFromWire(%v) returned invalid rect %v without error", vals, rect)
	}
	w := RectToWire(rect)
	for i := range w {
		if math.Float64bits(w[i]) != math.Float64bits(vals[i]) {
			t.Fatalf("rect %v round-tripped as %v", vals, w)
		}
	}
}

// diffRead reads data as a T with readBody and with the encoding/json
// call it replaced, each behind a MaxBytesReader of limit bytes, and
// returns the reader's error. The reader reads data twice, whole and
// one byte a read, and must agree with encoding/json both times.
func diffRead[T any, P interface {
	*T
	read([]byte) int
	decode(*json.Decoder) error
}](t *testing.T, data []byte, limit int64) error {
	t.Helper()
	var want T
	wantErr := json.NewDecoder(http.MaxBytesReader(httptest.NewRecorder(), body(data), limit)).Decode(&want)
	var gotErr error
	for _, src := range []func([]byte) io.ReadCloser{body, trickle} {
		var got T
		gotErr = readBody(httptest.NewRecorder(), src(data), limit, P(&got).read, P(&got).decode)
		switch {
		case (wantErr == nil) != (gotErr == nil):
			t.Fatalf("%T under a %d-byte cap: encoding/json says %v, the reader %v\nbody %q", got, limit, wantErr, gotErr, data)
		case wantErr == nil && !reflect.DeepEqual(want, got):
			t.Fatalf("%T under a %d-byte cap:\n got %#v\nwant %#v\nbody %q", got, limit, got, want, data)
		}
	}
	return gotErr
}

// diffBulk runs readBulk, on data whole and one byte a read, and a
// json.Decoder loop over data. Every record readBulk returns holds a
// valid rectangle that is its line's coordinates bit for bit.
func diffBulk(t *testing.T, data []byte, limit int64) {
	t.Helper()
	var want []rtree.Record
	var coords [][]float64
	wantLine := 0
	dec := json.NewDecoder(http.MaxBytesReader(httptest.NewRecorder(), body(data), limit))
	for {
		var line BulkLine
		if err := dec.Decode(&line); err != nil {
			if !errors.Is(err, io.EOF) {
				wantLine = len(want) + 1
			}
			break
		}
		rect, err := RectFromWire(line.Rect)
		if err != nil {
			wantLine = len(want) + 1
			break
		}
		want = append(want, rtree.Record{Rect: rect, OID: line.OID})
		coords = append(coords, line.Rect)
	}
	for _, src := range []func([]byte) io.ReadCloser{body, trickle} {
		got, err := readBulk(httptest.NewRecorder(), src(data), limit)
		gotLine := 0
		if err != nil {
			if _, serr := fmt.Sscanf(err.Error(), "bad bulk line %d:", &gotLine); serr != nil {
				t.Fatalf("bulk error %q names no line", err)
			}
		}
		switch {
		case gotLine != wantLine:
			t.Fatalf("bulk under a %d-byte cap: failed at line %d, the old loop at %d (%v)\nbody %q", limit, gotLine, wantLine, err, data)
		case wantLine == 0 && !reflect.DeepEqual(got, want):
			t.Fatalf("bulk under a %d-byte cap:\n got %v\nwant %v\nbody %q", limit, got, want, data)
		}
		for i, rec := range got {
			checkWireRect(t, rec.Rect, coords[i])
		}
	}
}

// FuzzLineEncode pins lineWriter's hand renderer to the wire
// definition: for arbitrary oids and float64 bit patterns the rendered
// match and pair lines equal json.Marshal of QueryLine and JoinLine
// byte for byte, and a coordinate json.Marshal refuses (NaN, ±Inf)
// stops the writer instead of reaching the wire. The stats and error
// trailers, with the oids as counts and text as the explain and error
// strings, equal json.Marshal too, and so does a /v1/knn body of none,
// one or two of the neighbours the inputs make (a NaN or ±Inf distance
// or coordinate is refused, as json.Marshal refuses it).
func FuzzLineEncode(f *testing.F) {
	bits := math.Float64bits
	f.Add(uint64(0), uint64(1), bits(0), bits(math.Copysign(0, -1)), bits(1), bits(-1), "")
	f.Add(uint64(math.MaxUint64), uint64(1<<53), bits(5e-324), bits(2.2250738585072009e-308), bits(1e-7), bits(1e-6), "plan=single")
	f.Add(uint64(42), uint64(7), bits(999999999999999868928), bits(1e21), bits(math.MaxFloat64), bits(-math.MaxFloat64), "cache=hit plan=conjunction short-circuit refs=meet")
	f.Add(uint64(1995), uint64(1301), bits(0.1+0.2), bits(123456789), bits(1e20), bits(-9.5e-7), "<a href=\"x\">&amp;</a>\u2028\u2029")
	f.Add(uint64(3), uint64(4), bits(100.25), bits(1e-9), bits(1.5e-10), bits(1e100), "\x00\x01\b\f\n\r\t\x1f\x7f\\/'")
	f.Add(uint64(5), uint64(6), bits(math.NaN()), bits(math.Inf(1)), bits(math.Inf(-1)), bits(0.5), "\xff\xc3(\xed\xa0\x80é😀\ufffd")
	f.Fuzz(func(t *testing.T, oid, oid2, a, b, c, d uint64, text string) {
		for _, trailer := range []*QueryLine{
			{Stats: &WireStats{NodeAccesses: oid, Candidates: int(oid2), Explain: text}},
			{Error: text},
		} {
			want, err := json.Marshal(trailer)
			if err != nil {
				t.Fatal(err)
			}
			if got := appendQueryTrailer(nil, trailer); !bytes.Equal(got, append(want, '\n')) {
				t.Fatalf("query trailer\n got %q\nwant %q", got, want)
			}
		}
		for _, trailer := range []*JoinLine{
			{Stats: &JoinWireStats{Pairs: int(oid2), NodeAccesses: oid}},
			{Error: text},
		} {
			want, err := json.Marshal(trailer)
			if err != nil {
				t.Fatal(err)
			}
			if got := appendJoinTrailer(nil, trailer); !bytes.Equal(got, append(want, '\n')) {
				t.Fatalf("join trailer\n got %q\nwant %q", got, want)
			}
		}

		r := geom.R(math.Float64frombits(a), math.Float64frombits(b), math.Float64frombits(c), math.Float64frombits(d))
		nn := []rtree.Neighbour{
			{OID: oid, Rect: r, Dist: math.Float64frombits(a)},
			{OID: oid2, Rect: geom.R(r.Max.Y, r.Max.X, r.Min.Y, r.Min.X), Dist: math.Float64frombits(oid)},
		}
		for n := range len(nn) + 1 {
			resp := KNNResponse{Neighbours: []KNNNeighbour{}, NodeAccesses: oid2}
			for _, nb := range nn[:n] {
				resp.Neighbours = append(resp.Neighbours, KNNNeighbour{OID: nb.OID, Rect: RectToWire(nb.Rect), Dist: nb.Dist})
			}
			want, err := json.Marshal(resp)
			got, ok := appendKNNBody(nil, nn[:n], oid2)
			if ok != (err == nil) {
				t.Fatalf("kNN body of %d: json.Marshal error %v, rendered %v", n, err, ok)
			}
			if ok && !bytes.Equal(got, append(want, '\n')) {
				t.Fatalf("kNN body of %d\n got %q\nwant %q", n, got, want)
			}
		}

		p := query.JoinPair{LeftOID: oid, RightOID: oid2, LeftRect: r, RightRect: geom.R(r.Max.Y, r.Max.X, r.Min.Y, r.Min.X)}
		lr, rr := RectToWire(p.LeftRect), RectToWire(p.RightRect)
		wantMatch, err := json.Marshal(QueryLine{OID: &oid, Rect: &lr})
		wantPair, err2 := json.Marshal(JoinLine{LeftOID: &p.LeftOID, RightOID: &p.RightOID, LeftRect: &lr, RightRect: &rr})
		if err != nil || err2 != nil {
			lw := &lineWriter{}
			if r.Finite() || lw.pair(p) || lw.err == nil || len(lw.buf) != 0 {
				t.Fatalf("json.Marshal refuses %v (%v) but the writer rendered %q", r, err, lw.buf)
			}
			return
		}
		if got := appendMatchLine(nil, oid, r); !bytes.Equal(got, append(wantMatch, '\n')) {
			t.Fatalf("match line\n got %q\nwant %q", got, wantMatch)
		}
		if got := appendPairLine(nil, p); !bytes.Equal(got, append(wantPair, '\n')) {
			t.Fatalf("pair line\n got %q\nwant %q", got, wantPair)
		}

		// The same lines through a leaf's kept text: a one-leaf arena tree
		// holding r answers three times — the entry is rendered the slow
		// way once, then the leaf renders itself — and the line framed
		// around its text, and the pair line made of the rectangle's, are
		// the same bytes. A tree stores only rectangles with Min < Max, so
		// the coordinates are put in order first.
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
		var rectText string
		all := func(geom.Rect) bool { return true }
		for i := 0; i < 3; i++ {
			if _, err := idx.SearchHits(context.Background(), all, all, func(h rtree.Hit) bool {
				rectText = h.Text()
				return true
			}); err != nil {
				t.Fatal(err)
			}
		}
		l := wholeLeaf(t, idx)
		_, earned := l.Lines()
		lw := &lineWriter{since: time.Since}
		lw.leaf(l)
		lr = RectToWire(r)
		wantMatch, err = json.Marshal(QueryLine{OID: &oid, Rect: &lr})
		if err != nil {
			// ±Inf orders like any number but has no wire form: the leaf
			// keeps no text for the entry and the writer stops.
			if rectText != "" || lw.err == nil {
				t.Fatalf("json.Marshal refuses %v (%v) but the leaf kept %q for it", r, err, rectText)
			}
			return
		}
		if rectText == "" || !earned {
			t.Fatalf("the leaf holding %v has not earned its text after three answers", r)
		}
		if !bytes.Equal(lw.buf, append(wantMatch, '\n')) {
			t.Fatalf("match line from the leaf's text\n got %q\nwant %q", lw.buf, wantMatch)
		}
		p = query.JoinPair{LeftOID: oid, RightOID: oid, LeftRect: r, RightRect: r, LeftText: rectText, RightText: rectText}
		wantPair, err = json.Marshal(JoinLine{LeftOID: &oid, RightOID: &oid, LeftRect: &lr, RightRect: &lr})
		if err != nil {
			t.Fatal(err)
		}
		if got := appendPairLine(nil, p); !bytes.Equal(got, append(wantPair, '\n')) {
			t.Fatalf("pair line from the leaf's text\n got %q\nwant %q", got, wantPair)
		}
	})
}
