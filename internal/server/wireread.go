package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"unicode/utf8"

	"mbrtopo/internal/geom"
	"mbrtopo/internal/rtree"
)

// Request bodies are decoded by encoding/json — what
// json.NewDecoder(http.MaxBytesReader(w, body, limit)).Decode does with
// the wire.go struct — behind one shortcut for the shape every client
// in this repository sends, json.Marshal of that struct. The shortcut
// looks at the bytes in hand and answers only yes or no; where it says
// no, encoding/json decodes the same bytes from the start, so the
// language accepted, the value decoded and the error are encoding/json's
// by construction. It takes one object holding only the struct's own
// fields, each at most once under its exact name, with whitespace
// between tokens, where each value is
//
//   - a string with no escape and valid UTF-8,
//   - a JSON number that parses as the field's type,
//   - true or false, or
//   - a non-empty array of those.
//
// Anything else goes to encoding/json: null, an unknown, repeated or
// case-folded key, an escape, [], a fraction or exponent in an integer,
// an overflow, or a value cut short in the bytes in hand.
// FuzzWireDecode holds readBody and readBulk to encoding/json, and
// TestShortcutTaken that canonical bodies take the shortcut.

// errEmptyBody answers a body with no value in it.
var errEmptyBody = errors.New("empty request body")

// scan reads the shortcut's shape from b.
type scan struct {
	b []byte
	i int
}

func (s *scan) ws() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// next consumes c if it is the next byte.
func (s *scan) next(c byte) bool {
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// take consumes c if it comes next after whitespace.
func (s *scan) take(c byte) bool {
	s.ws()
	return s.next(c)
}

// blank reports whether b holds only whitespace.
func blank(b []byte) bool {
	s := scan{b: b}
	s.ws()
	return s.i == len(b)
}

// object reads an object whose keys are among names, each at most
// once, handing each key to field to read its value. It returns how far
// into b the object ends, or 0 where b does not start with one of the
// shortcut's shape.
func (s *scan) object(names []string, field func(name string) bool) int {
	if !s.take('{') {
		return 0
	}
	if s.take('}') {
		return s.i
	}
	seen := 0
	for {
		key, ok := s.str()
		if !ok || !s.take(':') {
			return 0
		}
		k := 0
		for k < len(names) && string(key) != names[k] {
			k++
		}
		if k == len(names) || seen&(1<<k) != 0 || !field(names[k]) {
			return 0
		}
		seen |= 1 << k
		if s.take('}') {
			return s.i
		}
		if !s.take(',') {
			return 0
		}
	}
}

// str reads a string with no escape and valid UTF-8. Its text aliases b.
func (s *scan) str() ([]byte, bool) {
	if !s.take('"') {
		return nil, false
	}
	n := bytes.IndexByte(s.b[s.i:], '"')
	if n < 0 {
		return nil, false
	}
	text := s.b[s.i : s.i+n]
	for _, c := range text {
		if c < ' ' || c == '\\' {
			return nil, false
		}
	}
	s.i += n + 1
	return text, utf8.Valid(text)
}

func (s *scan) digits() int {
	start := s.i
	for s.i < len(s.b) && '0' <= s.b[s.i] && s.b[s.i] <= '9' {
		s.i++
	}
	return s.i - start
}

// number returns the bytes of a JSON number, or nil where none starts.
func (s *scan) number() []byte {
	s.ws()
	start := s.i
	s.next('-')
	if n := s.digits(); n == 0 || n > 1 && s.b[s.i-n] == '0' {
		return nil
	}
	if s.next('.') && s.digits() == 0 {
		return nil
	}
	if s.next('e') || s.next('E') {
		if !s.next('+') {
			s.next('-')
		}
		if s.digits() == 0 {
			return nil
		}
	}
	return s.b[start:s.i]
}

// The readers of one field each; false declines the value.

func (s *scan) string(p *string) bool {
	text, ok := s.str()
	*p = string(text)
	return ok
}

func (s *scan) bool(p *bool) bool {
	s.ws()
	switch rest := s.b[s.i:]; {
	case bytes.HasPrefix(rest, []byte("true")):
		*p, s.i = true, s.i+len("true")
	case bytes.HasPrefix(rest, []byte("false")):
		*p, s.i = false, s.i+len("false")
	default:
		return false
	}
	return true
}

func (s *scan) int(p *int) bool {
	n, err := strconv.ParseInt(string(s.number()), 10, strconv.IntSize)
	*p = int(n)
	return err == nil
}

func (s *scan) int64(p *int64) bool {
	var err error
	*p, err = strconv.ParseInt(string(s.number()), 10, 64)
	return err == nil
}

func (s *scan) uint64(p *uint64) bool {
	var err error
	*p, err = strconv.ParseUint(string(s.number()), 10, 64)
	return err == nil
}

func (s *scan) float64(p *float64) bool {
	var err error
	*p, err = strconv.ParseFloat(string(s.number()), 64)
	return err == nil
}

// array reads a non-empty array into *p, appending each element before
// reading into it.
func array[T any](s *scan, p *[]T, elem func(*T) bool) bool {
	if !s.take('[') {
		return false
	}
	*p = make([]T, 0, 4) // a rectangle's coordinates in one allocation
	for {
		var zero T
		*p = append(*p, zero)
		if !elem(&(*p)[len(*p)-1]) {
			return false
		}
		if s.take(']') {
			return true
		}
		if !s.take(',') {
			return false
		}
	}
}

func (s *scan) strings(p *[]string) bool { return array(s, p, s.string) }

func (s *scan) float64s(p *[]float64) bool { return array(s, p, s.float64) }

// One shortcut reader per request struct, over the fields wire.go
// names: read returns how far into b the request ends, or 0 where the
// shortcut declines. A declined read may have set some fields, so
// decode, the fallback, replaces the whole request.

var queryFields = []string{"index", "relations", "ref", "limit", "timeout_ms", "relations2", "ref2", "explain"}

func (q *QueryRequest) read(b []byte) int {
	s := scan{b: b}
	return s.object(queryFields, func(name string) bool {
		switch name {
		case "index":
			return s.string(&q.Index)
		case "relations":
			return s.strings(&q.Relations)
		case "ref":
			return s.float64s(&q.Ref)
		case "limit":
			return s.int(&q.Limit)
		case "timeout_ms":
			return s.int64(&q.TimeoutMS)
		case "relations2":
			return s.strings(&q.Relations2)
		case "ref2":
			return s.float64s(&q.Ref2)
		}
		return s.bool(&q.Explain)
	})
}

func (q *QueryRequest) decode(dec *json.Decoder) error { return decodeFresh(dec, q) }

var joinFields = []string{"left", "right", "relations", "non_contiguous", "keep_self_pairs", "limit", "timeout_ms"}

func (q *JoinRequest) read(b []byte) int {
	s := scan{b: b}
	return s.object(joinFields, func(name string) bool {
		switch name {
		case "left":
			return s.string(&q.Left)
		case "right":
			return s.string(&q.Right)
		case "relations":
			return s.strings(&q.Relations)
		case "non_contiguous":
			return s.bool(&q.NonContiguous)
		case "keep_self_pairs":
			return s.bool(&q.KeepSelfPairs)
		case "limit":
			return s.int(&q.Limit)
		}
		return s.int64(&q.TimeoutMS)
	})
}

func (q *JoinRequest) decode(dec *json.Decoder) error { return decodeFresh(dec, q) }

var watchFields = []string{"index", "relations", "ref", "buffer", "timeout_ms"}

func (q *WatchRequest) read(b []byte) int {
	s := scan{b: b}
	return s.object(watchFields, func(name string) bool {
		switch name {
		case "index":
			return s.string(&q.Index)
		case "relations":
			return s.strings(&q.Relations)
		case "ref":
			return s.float64s(&q.Ref)
		case "buffer":
			return s.int(&q.Buffer)
		}
		return s.int64(&q.TimeoutMS)
	})
}

func (q *WatchRequest) decode(dec *json.Decoder) error { return decodeFresh(dec, q) }

var updateFields = []string{"index", "oid", "rect"}

func (q *UpdateRequest) read(b []byte) int {
	s := scan{b: b}
	return s.object(updateFields, func(name string) bool {
		switch name {
		case "index":
			return s.string(&q.Index)
		case "oid":
			return s.uint64(&q.OID)
		}
		return s.float64s(&q.Rect)
	})
}

func (q *UpdateRequest) decode(dec *json.Decoder) error { return decodeFresh(dec, q) }

var bulkFields = []string{"oid", "rect"}

func (q *BulkLine) read(b []byte) int {
	s := scan{b: b}
	return s.object(bulkFields, func(name string) bool {
		if name == "oid" {
			return s.uint64(&q.OID)
		}
		return s.float64s(&q.Rect)
	})
}

// decodeFresh decodes dec's next value into a zero T and stores it in
// *p. Decoding into *p itself would move every request to the heap.
func decodeFresh[T any](dec *json.Decoder, p *T) error {
	var v T
	err := dec.Decode(&v)
	*p = v
	return err
}

// firstRead is how many bytes of a body the shortcut looks at.
const firstRead = 4 << 10

var firstReads = sync.Pool{New: func() any { return new([firstRead]byte) }}

// readBody reads the first value within limit bytes of a request body:
// with read, where the body's first Read brings a request of the
// shortcut's shape, and else with decode over the same bytes. A longer
// body fails the value it cuts with the *http.MaxBytesError, and
// net/http closes the connection after the response.
func readBody(w http.ResponseWriter, body io.ReadCloser, limit int64, read func([]byte) int, decode func(*json.Decoder) error) error {
	src := http.MaxBytesReader(w, body, limit)
	buf := firstReads.Get().(*[firstRead]byte)
	defer firstReads.Put(buf)
	// A MaxBytesReader repeats its error, so the decoder meets it after
	// the bytes in hand.
	n, _ := src.Read(buf[:])
	if read(buf[:n]) > 0 {
		return nil
	}
	err := decode(json.NewDecoder(io.MultiReader(bytes.NewReader(buf[:n]), src)))
	if err == io.EOF {
		return errEmptyBody
	}
	return err
}

// readBulk reads a /v1/bulk body of at most limit bytes: BulkLines
// separated by any whitespace, each with a valid rectangle. Lines that
// hold one value of the shortcut's shape are read with it; from the
// first that does not, the rest of the body is decoded by encoding/json.
// An error names the value it stopped at, counting from 1.
func readBulk(w http.ResponseWriter, body io.ReadCloser, limit int64) ([]rtree.Record, error) {
	var recs []rtree.Record
	add := func(line BulkLine, err error) error {
		var rect geom.Rect
		if err == nil {
			if rect, err = RectFromWire(line.Rect); err == nil {
				recs = append(recs, rtree.Record{Rect: rect, OID: line.OID})
				return nil
			}
		}
		return fmt.Errorf("bad bulk line %d: %v", len(recs)+1, err)
	}
	br := bufio.NewReader(http.MaxBytesReader(w, body, limit))
	var rest []byte
	for {
		b, err := br.ReadSlice('\n')
		if err != nil && err != io.EOF {
			rest = b // a line longer than the buffer, or the cap's error
			break
		}
		var line BulkLine
		if n := line.read(b); n > 0 && blank(b[n:]) {
			if err := add(line, nil); err != nil {
				return nil, err
			}
		} else if !blank(b) {
			rest = b
			break
		}
		if err == io.EOF {
			return recs, nil
		}
	}
	// The decoder drains rest before it reads br, which reuses rest's
	// bytes.
	dec := json.NewDecoder(io.MultiReader(bytes.NewReader(rest), br))
	for {
		var line BulkLine
		err := dec.Decode(&line)
		if err == io.EOF {
			return recs, nil
		}
		if err := add(line, err); err != nil {
			return nil, err
		}
	}
}
