package server

import (
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

// Request bodies are read by hand — one reader per request struct over
// the body's bytes, with no reflection unless a string holds an escape
// or invalid UTF-8 — and the language they accept is
// exactly what json.NewDecoder(http.MaxBytesReader(w, body, limit))
// .Decode accepts into that struct. The structs in wire.go stay the
// wire definition, and FuzzWireDecode holds every reader to
// encoding/json on accept, reject and the decoded value:
//
//   - The first JSON value within the first limit bytes is decoded;
//     bytes after it are not read. A body holding only whitespace, or
//     whose first value does not end within limit bytes, is refused.
//   - The value is an object (or null, which decodes to the zero
//     request). Fields come in any order and unknown fields are
//     skipped, but every byte of the value must be valid JSON, nested
//     at most maxDepth deep.
//   - A key selects the field whose name equals it, or else whose name
//     it equals under bytes.EqualFold, the case folding encoding/json
//     matches keys by. So "K" (the Kelvin sign) reads as "k" and "ſ"
//     (long s) as "s", but "ı" (dotless i) is not "i". A repeated
//     field keeps its last value.
//   - Strings take every escape; a \u surrogate pair joins, a lone
//     surrogate and invalid UTF-8 read as U+FFFD (json.Unmarshal
//     decodes such a string).
//   - null leaves a scalar as it is and sets a slice to nil. An array
//     decodes into the slice already there, element by element, as
//     reflect would: a null element keeps what that element held.
//   - An integer field refuses fractions, exponents and overflow; a
//     float field refuses overflow.

// maxDepth is how deep encoding/json lets a value nest.
const maxDepth = 10000

// errShort says the bytes ran out inside a value and more may come.
var errShort = errors.New("server: short JSON value")

// errEmptyBody answers a body with no value in it.
var errEmptyBody = errors.New("empty request body")

// jsonReader reads JSON from b, where an end of b that is not eof asks
// for more bytes with errShort.
type jsonReader struct {
	b     []byte
	i     int
	eof   bool // b holds the rest of the body
	depth int  // objects and arrays open
}

// short reports running out of bytes at d.i.
func (d *jsonReader) short() error {
	if d.eof {
		return errors.New("unexpected end of JSON input")
	}
	return errShort
}

func (d *jsonReader) syntax(what string) error {
	if d.i == len(d.b) {
		return d.short()
	}
	return errors.New("invalid character " + strconv.QuoteRune(rune(d.b[d.i])) + " " + what)
}

func (d *jsonReader) ws() {
	for d.i < len(d.b) {
		switch d.b[d.i] {
		case ' ', '\t', '\n', '\r':
			d.i++
		default:
			return
		}
	}
}

// peek skips whitespace and returns the byte after it.
func (d *jsonReader) peek() (byte, error) {
	d.ws()
	if d.i == len(d.b) {
		return 0, d.short()
	}
	return d.b[d.i], nil
}

// expect consumes c after whitespace.
func (d *jsonReader) expect(c byte, what string) error {
	if got, err := d.peek(); err != nil {
		return err
	} else if got != c {
		return d.syntax(what)
	}
	d.i++
	return nil
}

func (d *jsonReader) literal(word string) error {
	for j := 0; j < len(word); j++ {
		if d.i == len(d.b) {
			return d.short()
		}
		if d.b[d.i] != word[j] {
			return d.syntax("in literal " + word)
		}
		d.i++
	}
	return nil
}

func (d *jsonReader) push() error {
	d.depth++
	if d.depth > maxDepth {
		return errors.New("exceeded max depth")
	}
	return nil
}

// mismatch refuses the value at d.i for a field of type typ: a type
// error when a JSON value starts there, a syntax error otherwise.
func (d *jsonReader) mismatch(typ string) error {
	var value string
	switch c := d.b[d.i]; {
	case c == '{':
		value = "object"
	case c == '[':
		value = "array"
	case c == '"':
		value = "string"
	case c == 't' || c == 'f':
		value = "bool"
	case c == '-' || '0' <= c && c <= '9':
		value = "number"
	default:
		return d.syntax("looking for beginning of value")
	}
	return errors.New("cannot unmarshal " + value + " into a field of type " + typ)
}

// number returns the bytes of the number at d.i.
func (d *jsonReader) number() ([]byte, error) {
	start := d.i
	digits := func() error {
		if d.i == len(d.b) {
			return d.short()
		}
		if c := d.b[d.i]; c < '0' || c > '9' {
			return d.syntax("in numeric literal")
		}
		for d.i < len(d.b) && '0' <= d.b[d.i] && d.b[d.i] <= '9' {
			d.i++
		}
		return nil
	}
	if d.b[d.i] == '-' {
		d.i++
	}
	if d.i < len(d.b) && d.b[d.i] == '0' {
		d.i++
	} else if err := digits(); err != nil {
		return nil, err
	}
	if d.i < len(d.b) && d.b[d.i] == '.' {
		d.i++
		if err := digits(); err != nil {
			return nil, err
		}
	}
	if d.i < len(d.b) && (d.b[d.i] == 'e' || d.b[d.i] == 'E') {
		d.i++
		if d.i < len(d.b) && (d.b[d.i] == '+' || d.b[d.i] == '-') {
			d.i++
		}
		if err := digits(); err != nil {
			return nil, err
		}
	}
	if d.i == len(d.b) && !d.eof {
		return nil, errShort // the number may go on
	}
	return d.b[start:d.i], nil
}

// str returns the text of the string at d.i, which opens with '"'. As
// in encoding/json, the literal is checked first and then unquoted: one
// with no escape and valid UTF-8 is its own text, aliasing b, and
// encoding/json decodes any other.
func (d *jsonReader) str() ([]byte, error) {
	d.i++
	start, escaped, ascii := d.i, false, true
	for {
		if d.i == len(d.b) {
			return nil, d.short()
		}
		c := d.b[d.i]
		if c == '"' {
			break
		}
		switch {
		case c < ' ':
			return nil, d.syntax("in string literal")
		case c == '\\':
			escaped = true
			d.i++
			if d.i == len(d.b) {
				return nil, d.short()
			}
			switch d.b[d.i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				for k := 0; k < 4; k++ {
					d.i++
					if d.i == len(d.b) {
						return nil, d.short()
					}
					if !isHex(d.b[d.i]) {
						return nil, d.syntax("in \\u hexadecimal character escape")
					}
				}
			default:
				return nil, d.syntax("in string escape code")
			}
		case c >= utf8.RuneSelf:
			ascii = false
		}
		d.i++
	}
	s := d.b[start:d.i]
	d.i++
	if !escaped && (ascii || utf8.Valid(s)) {
		return s, nil
	}
	var text string
	err := json.Unmarshal(d.b[start-1:d.i], &text)
	return []byte(text), err
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

// skip checks and passes over the value at d.i: what an unknown field
// holds.
func (d *jsonReader) skip() error {
	c, err := d.peek()
	if err != nil {
		return err
	}
	switch c {
	case '{':
		return d.object(nil, nil)
	case '[':
		_, err = d.elements(func(int) error { return d.skip() })
	case '"':
		_, err = d.str()
	case 't':
		err = d.literal("true")
	case 'f':
		err = d.literal("false")
	case 'n':
		err = d.literal("null")
	default:
		if c == '-' || '0' <= c && c <= '9' {
			_, err = d.number()
		} else {
			err = d.syntax("looking for beginning of value")
		}
	}
	return err
}

// object reads the object at d.i, handing each key's value to field
// under the name in names the key selects, and skipping the rest.
func (d *jsonReader) object(names []string, field func(name string) error) error {
	d.i++
	if err := d.push(); err != nil {
		return err
	}
	c, err := d.peek()
	if err != nil {
		return err
	}
	if c != '}' {
		for {
			if c != '"' {
				return d.syntax("looking for beginning of object key string")
			}
			key, err := d.str()
			if err != nil {
				return err
			}
			name := fieldName(key, names)
			if err := d.expect(':', "after object key"); err != nil {
				return err
			}
			if name == "" {
				err = d.skip()
			} else if _, err = d.peek(); err == nil {
				err = field(name)
			}
			if err != nil {
				return err
			}
			if c, err = d.peek(); err != nil {
				return err
			}
			if c == '}' {
				break
			}
			if c != ',' {
				return d.syntax("after object key:value pair")
			}
			d.i++
			if c, err = d.peek(); err != nil {
				return err
			}
		}
	}
	d.i++
	d.depth--
	return nil
}

// elements reads the array at d.i, handing each element's index to
// elem, and returns the element count.
func (d *jsonReader) elements(elem func(i int) error) (int, error) {
	d.i++
	if err := d.push(); err != nil {
		return 0, err
	}
	c, err := d.peek()
	if err != nil {
		return 0, err
	}
	n := 0
	if c != ']' {
		for {
			if err := elem(n); err != nil {
				return 0, err
			}
			n++
			if c, err = d.peek(); err != nil {
				return 0, err
			}
			if c == ']' {
				break
			}
			if c != ',' {
				return 0, d.syntax("after array element")
			}
			d.i++
			if _, err = d.peek(); err != nil {
				return 0, err
			}
		}
	}
	d.i++
	d.depth--
	return n, nil
}

// fieldName returns the name in names that key selects, as
// encoding/json selects a struct field: the name key equals, or else
// the one it equals after folding, or "" when there is none.
func fieldName(key []byte, names []string) string {
	for _, n := range names {
		if string(key) == n {
			return n
		}
	}
	for _, n := range names {
		if bytes.EqualFold(key, []byte(n)) {
			return n
		}
	}
	return ""
}

// The readers of one field each. A value of another JSON type is an
// error, and null leaves the field as it was.

func (d *jsonReader) string(p *string) error {
	switch d.b[d.i] {
	case '"':
		s, err := d.str()
		*p = string(s)
		return err
	case 'n':
		return d.literal("null")
	}
	return d.mismatch("string")
}

func (d *jsonReader) bool(p *bool) error {
	switch d.b[d.i] {
	case 't':
		*p = true
		return d.literal("true")
	case 'f':
		*p = false
		return d.literal("false")
	case 'n':
		return d.literal("null")
	}
	return d.mismatch("bool")
}

// numberFor returns the bytes of the number a field of type typ
// holds, or nil for null.
func (d *jsonReader) numberFor(typ string) ([]byte, error) {
	switch c := d.b[d.i]; {
	case c == '-' || '0' <= c && c <= '9':
		return d.number()
	case c == 'n':
		return nil, d.literal("null")
	}
	return nil, d.mismatch(typ)
}

func badNumber(b []byte, typ string) error {
	return errors.New("cannot unmarshal number " + string(b) + " into a field of type " + typ)
}

func (d *jsonReader) int(p *int) error {
	b, err := d.numberFor("int")
	if b == nil || err != nil {
		return err
	}
	n, err := strconv.ParseInt(string(b), 10, strconv.IntSize)
	if err != nil {
		return badNumber(b, "int")
	}
	*p = int(n)
	return nil
}

func (d *jsonReader) int64(p *int64) error {
	b, err := d.numberFor("int64")
	if b == nil || err != nil {
		return err
	}
	n, err := strconv.ParseInt(string(b), 10, 64)
	if err != nil {
		return badNumber(b, "int64")
	}
	*p = n
	return nil
}

func (d *jsonReader) uint64(p *uint64) error {
	b, err := d.numberFor("uint64")
	if b == nil || err != nil {
		return err
	}
	n, err := strconv.ParseUint(string(b), 10, 64)
	if err != nil {
		return badNumber(b, "uint64")
	}
	*p = n
	return nil
}

func (d *jsonReader) float64(p *float64) error {
	b, err := d.numberFor("float64")
	if b == nil || err != nil {
		return err
	}
	f, err := strconv.ParseFloat(string(b), 64)
	if err != nil {
		return badNumber(b, "float64")
	}
	*p = f
	return nil
}

// slice reads an array into *p as encoding/json does, element by
// element into the slice already there: a null element keeps what that
// element held, the slice ends at the array's length, an empty array
// is an empty (not nil) slice, and null is a nil one.
func slice[T any](d *jsonReader, p *[]T, typ string, elem func(*T) error) error {
	switch d.b[d.i] {
	case '[':
	case 'n':
		*p = nil
		return d.literal("null")
	default:
		return d.mismatch(typ)
	}
	s := *p
	n, err := d.elements(func(i int) error {
		switch {
		case i < len(s):
		case i < cap(s):
			s = s[:i+1]
		case cap(s) == 0:
			s = make([]T, 1, 4) // a rectangle's coordinates in one allocation
		default:
			var zero T
			s = append(s, zero)
		}
		return elem(&s[i])
	})
	if err != nil {
		return err
	}
	if n == 0 {
		s = []T{}
	}
	*p = s[:n]
	return nil
}

func (d *jsonReader) strings(p *[]string) error { return slice(d, p, "[]string", d.string) }

func (d *jsonReader) float64s(p *[]float64) error { return slice(d, p, "[]float64", d.float64) }

// request reads one top-level value into a request whose fields are
// names: an object, or null, which leaves the request as it was. It
// returns io.EOF when only whitespace is left.
func (d *jsonReader) request(names []string, field func(name string) error) error {
	d.ws()
	if d.i == len(d.b) {
		if d.eof {
			return io.EOF
		}
		return errShort
	}
	switch d.b[d.i] {
	case '{':
		return d.object(names, field)
	case 'n':
		if err := d.literal("null"); err != nil {
			return err
		}
		// encoding/json takes a top-level literal as ended only once it
		// has seen the byte after it, or the end of the body.
		if d.i == len(d.b) && !d.eof {
			return errShort
		}
		return nil
	default:
		return errors.New("request body is not a JSON object")
	}
}

// One reader per request struct, over the fields wire.go names.

var queryFields = []string{"index", "relations", "ref", "limit", "timeout_ms", "relations2", "ref2", "explain"}

func (q *QueryRequest) read(d *jsonReader) error {
	return d.request(queryFields, func(name string) error {
		switch name {
		case "index":
			return d.string(&q.Index)
		case "relations":
			return d.strings(&q.Relations)
		case "ref":
			return d.float64s(&q.Ref)
		case "limit":
			return d.int(&q.Limit)
		case "timeout_ms":
			return d.int64(&q.TimeoutMS)
		case "relations2":
			return d.strings(&q.Relations2)
		case "ref2":
			return d.float64s(&q.Ref2)
		case "explain":
			return d.bool(&q.Explain)
		}
		return d.skip()
	})
}

var joinFields = []string{"left", "right", "relations", "non_contiguous", "keep_self_pairs", "limit", "timeout_ms"}

func (q *JoinRequest) read(d *jsonReader) error {
	return d.request(joinFields, func(name string) error {
		switch name {
		case "left":
			return d.string(&q.Left)
		case "right":
			return d.string(&q.Right)
		case "relations":
			return d.strings(&q.Relations)
		case "non_contiguous":
			return d.bool(&q.NonContiguous)
		case "keep_self_pairs":
			return d.bool(&q.KeepSelfPairs)
		case "limit":
			return d.int(&q.Limit)
		case "timeout_ms":
			return d.int64(&q.TimeoutMS)
		}
		return d.skip()
	})
}

var watchFields = []string{"index", "relations", "ref", "buffer", "timeout_ms"}

func (q *WatchRequest) read(d *jsonReader) error {
	return d.request(watchFields, func(name string) error {
		switch name {
		case "index":
			return d.string(&q.Index)
		case "relations":
			return d.strings(&q.Relations)
		case "ref":
			return d.float64s(&q.Ref)
		case "buffer":
			return d.int(&q.Buffer)
		case "timeout_ms":
			return d.int64(&q.TimeoutMS)
		}
		return d.skip()
	})
}

var updateFields = []string{"index", "oid", "rect"}

func (q *UpdateRequest) read(d *jsonReader) error {
	return d.request(updateFields, func(name string) error {
		switch name {
		case "index":
			return d.string(&q.Index)
		case "oid":
			return d.uint64(&q.OID)
		case "rect":
			return d.float64s(&q.Rect)
		}
		return d.skip()
	})
}

var bulkFields = []string{"oid", "rect"}

func (q *BulkLine) read(d *jsonReader) error {
	return d.request(bulkFields, func(name string) error {
		switch name {
		case "oid":
			return d.uint64(&q.OID)
		case "rect":
			return d.float64s(&q.Rect)
		}
		return d.skip()
	})
}

// bodyReader feeds a request body to the readers in a pooled buffer,
// reading only as far as the value in hand needs, as json.Decoder
// does.
type bodyReader struct {
	src io.Reader
	buf []byte
	off int   // bytes of buf the values read so far took
	err error // why src stopped: io.EOF, or the failure
	d   jsonReader
	end valueEnd
}

// minRead is the least room a read asks src to fill.
const minRead = 512

// maxPooledBuffer keeps a body that needed big buffers from pinning
// them in the pool.
const maxPooledBuffer = 64 << 10

var bodyReaders = sync.Pool{New: func() any { return &bodyReader{buf: make([]byte, 0, 2*minRead)} }}

// newBodyReader reads the first limit bytes of body; a longer body
// fails the value it cuts with the *http.MaxBytesError, and net/http
// closes the connection after the response.
func newBodyReader(w http.ResponseWriter, body io.ReadCloser, limit int64) *bodyReader {
	br := bodyReaders.Get().(*bodyReader)
	br.src = http.MaxBytesReader(w, body, limit)
	return br
}

func (br *bodyReader) release() {
	if cap(br.buf) > maxPooledBuffer {
		return
	}
	*br = bodyReader{buf: br.buf[:0]}
	bodyReaders.Put(br)
}

// next reads the next value with read and returns io.EOF once only
// whitespace is left. A value that read finds cut short is read again from
// its start, but only once the body has ended or valueEnd says the
// bytes now in hand can hold all of it, so a value costs time linear
// in its size however few bytes each read of the body brings.
func (br *bodyReader) next(read func(*jsonReader) error) error {
	br.end = valueEnd{}
	for {
		br.d = jsonReader{b: br.buf[br.off:], eof: br.err == io.EOF}
		err := read(&br.d)
		if err != errShort {
			br.off += br.d.i
			return err
		}
		if br.err != nil {
			return br.err
		}
		for br.fill(); br.err == nil && !br.end.reached(br.buf[br.off:]); br.fill() {
		}
	}
}

// valueEnd finds where a value can first end, passing over each byte
// once however many reads bring them. It follows only what ends a
// value (brackets, strings and their escapes) and leaves checking the
// value to the reader, which refuses anything the brackets do not
// settle before it needs bytes past them.
type valueEnd struct {
	n          int // unread bytes passed over
	depth      int // brackets open
	inStr, esc bool
}

// reached passes over b[e.n:], where b is the unread bytes, and
// reports whether the value at the start of b can have ended within b:
// its outermost bracket has closed, or it is not an object or array.
func (e *valueEnd) reached(b []byte) bool {
	for ; e.n < len(b); e.n++ {
		switch c := b[e.n]; {
		case e.esc:
			e.esc = false
		case e.inStr:
			e.esc, e.inStr = c == '\\', c != '"'
		case c == '{' || c == '[':
			e.depth++
		case c == '}' || c == ']':
			if e.depth--; e.depth <= 0 {
				return true
			}
		case e.depth == 0 && c != ' ' && c != '\t' && c != '\n' && c != '\r':
			return true
		case c == '"':
			e.inStr = true
		}
	}
	return false
}

// fill reads more of the body onto the unread bytes.
func (br *bodyReader) fill() {
	if br.off > 0 {
		br.buf = br.buf[:copy(br.buf, br.buf[br.off:])]
		br.off = 0
	}
	if cap(br.buf)-len(br.buf) < minRead {
		br.buf = append(make([]byte, 0, 2*cap(br.buf)+minRead), br.buf...)
	}
	n, err := br.src.Read(br.buf[len(br.buf):cap(br.buf)])
	br.buf = br.buf[:len(br.buf)+n]
	br.err = err
}

// readBody reads the first value within limit bytes of a request body
// with read.
func readBody(w http.ResponseWriter, body io.ReadCloser, limit int64, read func(*jsonReader) error) error {
	br := newBodyReader(w, body, limit)
	defer br.release()
	if err := br.next(read); err != io.EOF {
		return err
	}
	return errEmptyBody
}

// readBulk reads a /v1/bulk body of at most limit bytes: BulkLines
// separated by any whitespace, each with a valid rectangle. An error
// names the line it stopped at, counting from 1.
func readBulk(w http.ResponseWriter, body io.ReadCloser, limit int64) ([]rtree.Record, error) {
	br := newBodyReader(w, body, limit)
	defer br.release()
	var recs []rtree.Record
	for {
		var line BulkLine
		err := br.next(line.read)
		if err == io.EOF {
			return recs, nil
		}
		if err == nil {
			var rect geom.Rect
			if rect, err = RectFromWire(line.Rect); err == nil {
				recs = append(recs, rtree.Record{Rect: rect, OID: line.OID})
				continue
			}
		}
		return nil, fmt.Errorf("bad bulk line %d: %v", len(recs)+1, err)
	}
}
