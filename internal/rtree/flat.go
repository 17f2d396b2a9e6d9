package rtree

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"

	"mbrtopo/internal/geom"
	"mbrtopo/internal/pagefile"
)

// This file implements the flat snapshot format: a pointer-free,
// array-packed serialization of one published tree version — the one
// format a tree is saved in. The layout replaces child pointers with
// byte offsets — children are written before their parents
// (post-order), so every child reference points strictly backwards and
// a reader checks and decodes one node record at a time, as the paper's
// trees read one page at a time. Neither side ever holds the whole
// image: FlatImage.Encode walks the pinned version twice (the header
// first needs the node section's length and CRC) and OpenFlat decodes
// from a stream. Two CRC32-C checksums (header, node section) make
// corruption detection deterministic: OpenFlat either yields exactly
// the tree that was written or an error wrapping pagefile.ErrCorrupt,
// never wrong entries.
//
// Each node record carries the node's page-access cost (1 + its
// overflow pages), so TraversalStats of the tree that adopts the image
// are bit-identical to those of the tree it was written from — the
// paper's disk-access metric survives a save and a reopen.

// Flat file layout (all integers little-endian):
//
//	offset   0: magic "MBRFLAT1" (8 bytes)
//	offset   8: headerSize (uint32, = 128)
//	offset  12: flags (uint32): bit 0 covering rects, bit 1 bounds valid
//	offset  16: generation (uint64) — the checkpoint generation
//	offset  24: rootOff (uint64) — byte offset of the root record
//	offset  32: nodesLen (uint64) — byte length of the node section
//	offset  40: size (uint64) — stored entries (Len)
//	offset  48: depth (uint32) — levels, 1 = root is a leaf
//	offset  52: nodeCount (uint32)
//	offset  56: name (1 length byte + up to 23 bytes)
//	offset  80: bounds minX minY maxX maxY (4 × float64)
//	offset 112: nodesCRC (uint32) — CRC32-C of the node section
//	offset 116: reserved (8 zero bytes)
//	offset 124: headerCRC (uint32) — CRC32-C of header[0:124]
//
// The node section starts at offset 128. One record per node:
//
//	uint16 level | uint16 count | uint32 cost | count × entry
//
// where an entry is minX minY maxX maxY (4 × float64) followed by a
// uint64 ref: the byte offset of the child record for internal
// entries, the object id for leaf entries. Entry order is exactly the
// node's entry order — limit-bounded traversals and their stats depend
// on it.
const (
	flatHeaderSize  = 128
	flatNodeHdrSize = 8
	flatMaxName     = 23

	// flatBuffer sizes the writer's and the reader's buffers; flatSlab is
	// how many nodes the reader allocates at a time.
	flatBuffer = 64 << 10
	flatSlab   = 128
)

var flatMagic = []byte("MBRFLAT1")

var flatCastagnoli = crc32.MakeTable(crc32.Castagnoli)

func readF64(b []byte) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(b))
}

func appendF64(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

func flatCorrupt(format string, args ...any) error {
	return fmt.Errorf("%w: flat snapshot: %s", pagefile.ErrCorrupt, fmt.Sprintf(format, args...))
}

// FlatImage is one published tree version pinned for writing as an
// MBRFLAT1 image. Its nodes are immutable, so the image is the same
// bytes however long the writing takes and whatever mutations publish
// meanwhile. It is for one goroutine.
type FlatImage struct {
	c   *core
	s   *snapshot
	gen uint64
	hdr []byte // the sealed header, once the header walk has run
}

// PinFlat pins the tree's published version for writing as an image
// tagged with the checkpoint generation gen. It reads no node: the walks
// run in Size and Encode. Writers are not blocked: later mutations
// publish new versions beside the one pinned.
func (c *core) PinFlat(gen uint64) *FlatImage { return &FlatImage{c: c, s: c.cur.Load(), gen: gen} }

// Size returns the image's length in bytes, running the header walk if
// it has not run yet.
func (im *FlatImage) Size() int64 {
	im.seal()
	return flatHeaderSize + int64(binary.LittleEndian.Uint64(im.hdr[32:40]))
}

// Encode writes the image to out: the header, then the records in a
// second walk through a buffered writer.
func (im *FlatImage) Encode(out io.Writer) error {
	im.seal()
	bw := bufio.NewWriterSize(out, flatBuffer)
	_, _ = bw.Write(im.hdr) // a bufio.Writer keeps its first error for Flush
	w := flatWalk{scratch: make([][]byte, im.s.depth), emit: func(rec []byte) { _, _ = bw.Write(rec) }}
	w.node(im.s.root)
	return bw.Flush()
}

// seal runs the header walk: it charges each node's read to the arena
// (the one walk that does), and sums the node section's length, record
// count, CRC and the stored rectangles' bounds into the header.
func (im *FlatImage) seal() {
	if im.hdr != nil {
		return
	}
	var (
		crc    uint32
		bounds geom.Rect
		found  bool
	)
	w := flatWalk{scratch: make([][]byte, im.s.depth)}
	w.visit = func(n *node) {
		im.c.st.get(n)
		if n.isLeaf() {
			for i := range n.entries {
				bounds, found = covering(bounds, found, n.entries[i].Rect), true
			}
		}
	}
	w.emit = func(rec []byte) { crc = crc32.Update(crc, flatCastagnoli, rec) }
	rootOff := w.node(im.s.root)

	name := im.c.name
	if len(name) > flatMaxName {
		name = name[:flatMaxName]
	}
	hdr := make([]byte, flatHeaderSize)
	copy(hdr, flatMagic)
	binary.LittleEndian.PutUint32(hdr[8:12], flatHeaderSize)
	var flags uint32
	if im.c.covering {
		flags |= 1
	}
	if found {
		flags |= 2
	}
	binary.LittleEndian.PutUint32(hdr[12:16], flags)
	binary.LittleEndian.PutUint64(hdr[16:24], im.gen)
	binary.LittleEndian.PutUint64(hdr[24:32], rootOff)
	binary.LittleEndian.PutUint64(hdr[32:40], w.off)
	binary.LittleEndian.PutUint64(hdr[40:48], uint64(im.s.size))
	binary.LittleEndian.PutUint32(hdr[48:52], uint32(im.s.depth))
	binary.LittleEndian.PutUint32(hdr[52:56], w.count)
	hdr[56] = byte(len(name))
	copy(hdr[57:], name)
	binary.LittleEndian.PutUint64(hdr[80:88], math.Float64bits(bounds.Min.X))
	binary.LittleEndian.PutUint64(hdr[88:96], math.Float64bits(bounds.Min.Y))
	binary.LittleEndian.PutUint64(hdr[96:104], math.Float64bits(bounds.Max.X))
	binary.LittleEndian.PutUint64(hdr[104:112], math.Float64bits(bounds.Max.Y))
	binary.LittleEndian.PutUint32(hdr[112:116], crc)
	binary.LittleEndian.PutUint32(hdr[124:128], crc32.Checksum(hdr[:124], flatCastagnoli))
	im.hdr = hdr
}

// flatWalk encodes a version's records post-order, each into the
// reused scratch buffer of its level, and hands every finished record
// to emit.
type flatWalk struct {
	scratch [][]byte
	visit   func(*node) // called on each node before its record, if set
	emit    func(rec []byte)
	off     uint64 // node section bytes emitted so far
	count   uint32
}

// node encodes the subtree under n and returns the byte offset (from
// the file start) of n's record.
func (w *flatWalk) node(n *node) uint64 {
	if w.visit != nil {
		w.visit(n)
	}
	b := binary.LittleEndian.AppendUint16(w.scratch[n.level][:0], uint16(n.level))
	b = binary.LittleEndian.AppendUint16(b, uint16(len(n.entries)))
	b = binary.LittleEndian.AppendUint32(b, n.cost)
	for i := range n.entries {
		e := &n.entries[i]
		ref := e.OID
		if !n.isLeaf() {
			ref = w.node(e.Child)
		}
		b = appendF64(b, e.Rect.Min.X)
		b = appendF64(b, e.Rect.Min.Y)
		b = appendF64(b, e.Rect.Max.X)
		b = appendF64(b, e.Rect.Max.Y)
		b = binary.LittleEndian.AppendUint64(b, ref)
	}
	w.scratch[n.level] = b
	off := flatHeaderSize + w.off
	w.emit(b)
	w.off += uint64(len(b))
	w.count++
	return off
}

// FlatTree is a decoded flat snapshot: opening validates both
// checksums and every structural invariant, decoding the node section
// into the node versions a mutable tree keeps (arena.go: child
// references by pointer). It is not an index; Adopt and AdoptRPlus make
// a mutable tree over the very same nodes, which is the one way an
// image is read.
type FlatTree struct {
	name     string
	covering bool
	gen      uint64
	size     int
	depth    int
	bounds   geom.Rect
	hasBound bool
	nodes    []*node // in file (post-) order
	root     *node
	// minCap: smallest capacity at which every node fits its recorded cost.
	minCap      int
	leafEntries int // summed over every leaf
}

// OpenFlatBytes decodes a flat snapshot held in memory (see OpenFlat).
func OpenFlatBytes(data []byte) (*FlatTree, error) { return OpenFlat(bytes.NewReader(data)) }

// OpenFlat decodes a flat snapshot from r one node record at a time,
// summing the node section's CRC as it goes, and requires r to end
// right after the section the header states. It returns nothing until
// both checksums and every structural check have passed. Arbitrary or
// corrupted input yields an error wrapping pagefile.ErrCorrupt —
// never a panic, never wrong entries — and memory is allocated only
// for records that have arrived, whatever the header claims. A read
// error other than the input ending is returned wrapped; a sound R+
// image over entryBudget, with one wrapping ErrUnsplittable.
func OpenFlat(r io.Reader) (*FlatTree, error) {
	in := &flatInput{r: bufio.NewReaderSize(r, flatBuffer)}
	hdr := make([]byte, flatHeaderSize)
	if n, err := io.ReadFull(in.r, hdr); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil, flatCorrupt("%d bytes, need at least %d for the header", n, flatHeaderSize)
		}
		return nil, fmt.Errorf("flat snapshot: reading the header: %w", err)
	}
	if string(hdr[:8]) != string(flatMagic) {
		return nil, flatCorrupt("bad magic %q", hdr[:8])
	}
	if got, want := binary.LittleEndian.Uint32(hdr[124:128]), crc32.Checksum(hdr[:124], flatCastagnoli); got != want {
		return nil, flatCorrupt("header checksum mismatch")
	}
	if hs := binary.LittleEndian.Uint32(hdr[8:12]); hs != flatHeaderSize {
		return nil, flatCorrupt("unsupported header size %d", hs)
	}
	nodesLen := binary.LittleEndian.Uint64(hdr[32:40])
	in.left = nodesLen
	f, bad := decodeFlat(in, hdr, nodesLen)
	// A record that fails a check may be damaged bytes: read the rest of
	// the section before reporting, so that damage is named by the
	// checksum, whichever record it hit.
	in.drain()
	switch {
	case in.err != nil:
		return nil, fmt.Errorf("flat snapshot: reading the node section: %w", in.err)
	case in.short:
		return nil, flatCorrupt("the node section ends after %d of the %d bytes the header states", nodesLen-in.left, nodesLen)
	case in.trailing:
		return nil, flatCorrupt("bytes follow the %d-byte node section the header states", nodesLen)
	case in.crc != binary.LittleEndian.Uint32(hdr[112:116]):
		return nil, flatCorrupt("node section checksum mismatch")
	case bad != nil:
		return nil, bad
	}
	return f, nil
}

// decodeFlat decodes the node section as it arrives. It stops at the
// first record that fails a check, returning why, and returns nil, nil
// when the input failed first (in says how).
func decodeFlat(in *flatInput, hdr []byte, nodesLen uint64) (*FlatTree, error) {
	flags := binary.LittleEndian.Uint32(hdr[12:16])
	size := binary.LittleEndian.Uint64(hdr[40:48])
	depth := binary.LittleEndian.Uint32(hdr[48:52])
	nodeCount := binary.LittleEndian.Uint32(hdr[52:56])
	if depth < 1 || uint64(depth) > uint64(nodeCount)+1 {
		return nil, flatCorrupt("depth %d out of range for %d nodes", depth, nodeCount)
	}
	if size > nodesLen {
		// Each stored entry occupies at least one 40-byte record slot
		// in some leaf, so size can never exceed the section length.
		return nil, flatCorrupt("size %d exceeds node section length %d", size, nodesLen)
	}
	nameLen := int(hdr[56])
	if nameLen > flatMaxName {
		return nil, flatCorrupt("name length %d exceeds %d", nameLen, flatMaxName)
	}
	if uint64(nodeCount)*flatNodeHdrSize > nodesLen {
		return nil, flatCorrupt("node count %d exceeds section capacity", nodeCount)
	}
	f := &FlatTree{
		name:     string(hdr[57 : 57+nameLen]),
		covering: flags&1 != 0,
		hasBound: flags&2 != 0,
		gen:      binary.LittleEndian.Uint64(hdr[16:24]),
		size:     int(size),
		depth:    int(depth),
		bounds: geom.Rect{
			Min: geom.Point{X: readF64(hdr[80:]), Y: readF64(hdr[88:])},
			Max: geom.Point{X: readF64(hdr[96:]), Y: readF64(hdr[104:])},
		},
	}
	// Nodes are allocated a slab at a time as their records arrive, never
	// from the header's counts. offs holds each decoded record's byte
	// offset (from the file start), ascending, so a child reference — to
	// a record before its parent's — is found by binary search.
	var (
		slab      []node
		offs      []uint64
		hasParent []bool // a tree, not a DAG: copy-on-write re-points a node's one parent
	)
	for in.left > 0 {
		off := flatHeaderSize + nodesLen - in.left
		if len(f.nodes) == int(nodeCount) {
			return nil, flatCorrupt("more node records than the %d the header says", nodeCount)
		}
		if in.left < flatNodeHdrSize {
			return nil, flatCorrupt("truncated node header at offset %d", off)
		}
		rec, ok := in.next(flatNodeHdrSize)
		if !ok {
			return nil, nil
		}
		level := int(binary.LittleEndian.Uint16(rec[0:2]))
		count := int(binary.LittleEndian.Uint16(rec[2:4]))
		cost := binary.LittleEndian.Uint32(rec[4:8])
		if cost < 1 {
			return nil, flatCorrupt("node at offset %d has zero access cost", off)
		}
		if level >= int(depth) {
			return nil, flatCorrupt("node level %d beyond depth %d", level, depth)
		}
		if uint64(count)*entrySize > in.left {
			return nil, flatCorrupt("node at offset %d overruns the section (count %d)", off, count)
		}
		body, ok := in.next(count * entrySize)
		if !ok {
			return nil, nil
		}
		if len(slab) == cap(slab) {
			slab = make([]node, 0, flatSlab)
		}
		slab = slab[:len(slab)+1]
		n := &slab[len(slab)-1]
		n.level, n.cost = level, cost
		if count > 0 {
			n.entries = make([]Entry, count)
		}
		if level == 0 {
			f.leafEntries += count
		}
		f.minCap = max(f.minCap, (count+int(cost)-1)/int(cost))
		for i := range n.entries {
			e, b := &n.entries[i], body[i*entrySize:]
			e.Rect.Min.X = readF64(b)
			e.Rect.Min.Y = readF64(b[8:])
			e.Rect.Max.X = readF64(b[16:])
			e.Rect.Max.Y = readF64(b[24:])
			ref := binary.LittleEndian.Uint64(b[32:])
			if level == 0 {
				e.OID = ref
				continue
			}
			child, ok := slices.BinarySearch(offs, ref)
			if !ok {
				return nil, flatCorrupt("node at offset %d references unknown child offset %d", off, ref)
			}
			if cl := f.nodes[child].level; cl != level-1 {
				return nil, flatCorrupt("child at offset %d has level %d under a level-%d parent", ref, cl, level)
			}
			if hasParent[child] {
				return nil, flatCorrupt("node at offset %d is referenced twice", ref)
			}
			hasParent[child] = true
			e.Child = f.nodes[child]
		}
		f.nodes = append(f.nodes, n)
		offs = append(offs, off)
		hasParent = append(hasParent, false)
	}
	if len(f.nodes) != int(nodeCount) {
		return nil, flatCorrupt("decoded %d nodes, header says %d", len(f.nodes), nodeCount)
	}
	rootOff := binary.LittleEndian.Uint64(hdr[24:32])
	root, ok := slices.BinarySearch(offs, rootOff)
	if !ok {
		return nil, flatCorrupt("root offset %d is not a node record", rootOff)
	}
	if rl := f.nodes[root].level; rl != int(depth)-1 {
		return nil, flatCorrupt("root level %d inconsistent with depth %d", rl, depth)
	}
	for i, ok := range hasParent {
		if !ok && i != root {
			return nil, flatCorrupt("node record %d is not the root and no node references it", i)
		}
	}
	f.root = f.nodes[root]
	// Every record is now in the one tree under the root: the size the
	// header states must be what it stores.
	stored := uint64(f.leafEntries)
	if !f.covering {
		stored = uint64(len(f.Records()))
	}
	if stored != size {
		return nil, flatCorrupt("header says %d entries, the tree stores %d", size, stored)
	}
	if !f.covering {
		if err := overBudget(f.leafEntries, f.size); err != nil {
			return nil, fmt.Errorf("rtree: flat snapshot: %w", err)
		}
	}
	return f, nil
}

// flatInput reads an image's node section, summing its CRC as the bytes
// go by.
type flatInput struct {
	r       *bufio.Reader
	left    uint64 // node section bytes not yet read
	crc     uint32
	pending int    // bytes of the last record still to be discarded from r
	buf     []byte // a record larger than r's buffer, read in pieces

	short    bool  // the input ended inside the node section
	trailing bool  // the input goes on after it
	err      error // a read error other than the input's end
}

// next returns the next n bytes of the node section, valid until the
// next call. It reads a record larger than the reader's buffer in
// pieces, so memory grows only with the bytes that arrive. ok is false
// when the input ended or failed first. The caller has checked that the
// section holds n more bytes.
func (in *flatInput) next(n int) (b []byte, ok bool) {
	_, _ = in.r.Discard(in.pending) // buffered bytes: cannot fail
	in.pending = 0
	if n <= in.r.Size() {
		b, err := in.r.Peek(n)
		if err != nil {
			in.consume(len(b), b)
			_, _ = in.r.Discard(len(b))
			in.fail(err)
			return nil, false
		}
		in.consume(n, b)
		in.pending = n
		return b, true
	}
	in.buf = in.buf[:0]
	for len(in.buf) < n {
		k := min(n-len(in.buf), flatBuffer)
		in.buf = slices.Grow(in.buf, k)
		got, err := io.ReadFull(in.r, in.buf[len(in.buf):len(in.buf)+k])
		in.consume(got, in.buf[len(in.buf):len(in.buf)+got])
		in.buf = in.buf[:len(in.buf)+got]
		if err != nil {
			in.fail(err)
			return nil, false
		}
	}
	return in.buf, true
}

func (in *flatInput) consume(n int, b []byte) {
	in.crc = crc32.Update(in.crc, flatCastagnoli, b[:n])
	in.left -= uint64(n)
}

func (in *flatInput) fail(err error) {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		in.short = true
	} else {
		in.err = err
	}
}

// drain reads what is left of the node section into the CRC and checks
// that the input ends there.
func (in *flatInput) drain() {
	for in.left > 0 && !in.short && in.err == nil {
		in.next(int(min(in.left, flatBuffer)))
	}
	if in.short || in.err != nil {
		return
	}
	_, _ = in.r.Discard(in.pending)
	in.pending = 0
	switch _, err := in.r.ReadByte(); {
	case err == nil:
		in.trailing = true
	case err != io.EOF:
		in.err = err
	}
}

// Generation returns the checkpoint generation the snapshot was
// published under.
func (f *FlatTree) Generation() uint64 { return f.gen }

// Name identifies the access method the snapshot was taken from.
func (f *FlatTree) Name() string { return f.name }

// Len returns the number of stored entries.
func (f *FlatTree) Len() int { return f.size }

// Height returns the number of levels.
func (f *FlatTree) Height() int { return f.depth }

// Bounds returns the MBR of the stored rectangles.
func (f *FlatTree) Bounds() (geom.Rect, bool) {
	return f.bounds, f.hasBound
}

// CoveringNodeRects reports the node-rectangle semantics of the source
// tree: true for R-/R*-trees, false for the R+-tree.
func (f *FlatTree) CoveringNodeRects() bool { return f.covering }

// Records returns the stored (rect, oid) entries in the order a search
// of the tree meets them: what a tree of another page size, whose nodes
// the image's do not fit, is rebuilt from. An R+-tree registers an
// object in every leaf its interior reaches, as many times in each as it
// was inserted; its image yields each (rect, oid) that many times.
func (f *FlatTree) Records() []Record {
	recs := make([]Record, 0, f.size)
	var regs registrations
	var walk func(n *node)
	walk = func(n *node) {
		if !n.isLeaf() {
			for i := range n.entries {
				walk(n.entries[i].Child)
			}
			return
		}
		for _, e := range n.entries {
			rec := Record{Rect: e.Rect, OID: e.OID}
			if f.covering || regs.admit(n, rec) {
				recs = append(recs, rec)
			}
		}
	}
	walk(f.root)
	return recs
}
