package rtree

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"mbrtopo/internal/geom"
	"mbrtopo/internal/pagefile"
)

// This file implements the flat snapshot format: a pointer-free,
// array-packed serialization of one published tree version — the one
// format a tree is saved in. The layout replaces child pointers with
// byte offsets — children are written before their parents
// (post-order), so every child reference points strictly backwards and
// a single sequential pass both validates and decodes the whole file.
// Two CRC32-C checksums (header, node section) make corruption detection
// deterministic: OpenFlatBytes either yields exactly the tree that was
// written or an error wrapping pagefile.ErrCorrupt, never wrong
// entries.
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

// flatWriter serializes one published tree version.
type flatWriter struct {
	src    *arena
	nodes  []byte
	count  uint32
	bounds geom.Rect
	found  bool
}

// writeNode appends the subtree under n post-order and returns the
// byte offset (from the file start) of n's record.
func (w *flatWriter) writeNode(n *node) uint64 {
	w.src.get(n)
	refs := make([]uint64, len(n.entries))
	for i := range n.entries {
		if n.isLeaf() {
			refs[i] = n.entries[i].OID
			w.bounds, w.found = covering(w.bounds, w.found, n.entries[i].Rect), true
		} else {
			refs[i] = w.writeNode(n.entries[i].Child)
		}
	}
	off := uint64(flatHeaderSize + len(w.nodes))
	w.nodes = appendRecord(w.nodes, n, refs)
	w.count++
	return off
}

// appendRecord appends n's MBRFLAT1 record (flat.go) to b, with refs[i]
// as entry i's reference.
func appendRecord(b []byte, n *node, refs []uint64) []byte {
	b = binary.LittleEndian.AppendUint16(b, uint16(n.level))
	b = binary.LittleEndian.AppendUint16(b, uint16(len(n.entries)))
	b = binary.LittleEndian.AppendUint32(b, n.cost)
	for i := range n.entries {
		r := n.entries[i].Rect
		b = appendF64(b, r.Min.X)
		b = appendF64(b, r.Min.Y)
		b = appendF64(b, r.Max.X)
		b = appendF64(b, r.Max.Y)
		b = binary.LittleEndian.AppendUint64(b, refs[i])
	}
	return b
}

func writeFlat(out io.Writer, src *arena, root *node, covering bool,
	name string, gen uint64, size, depth int) error {

	if len(name) > flatMaxName {
		name = name[:flatMaxName]
	}
	w := &flatWriter{src: src}
	rootOff := w.writeNode(root)
	hdr := make([]byte, flatHeaderSize)
	copy(hdr, flatMagic)
	binary.LittleEndian.PutUint32(hdr[8:12], flatHeaderSize)
	var flags uint32
	if covering {
		flags |= 1
	}
	if w.found {
		flags |= 2
	}
	binary.LittleEndian.PutUint32(hdr[12:16], flags)
	binary.LittleEndian.PutUint64(hdr[16:24], gen)
	binary.LittleEndian.PutUint64(hdr[24:32], rootOff)
	binary.LittleEndian.PutUint64(hdr[32:40], uint64(len(w.nodes)))
	binary.LittleEndian.PutUint64(hdr[40:48], uint64(size))
	binary.LittleEndian.PutUint32(hdr[48:52], uint32(depth))
	binary.LittleEndian.PutUint32(hdr[52:56], w.count)
	hdr[56] = byte(len(name))
	copy(hdr[57:], name)
	binary.LittleEndian.PutUint64(hdr[80:88], math.Float64bits(w.bounds.Min.X))
	binary.LittleEndian.PutUint64(hdr[88:96], math.Float64bits(w.bounds.Min.Y))
	binary.LittleEndian.PutUint64(hdr[96:104], math.Float64bits(w.bounds.Max.X))
	binary.LittleEndian.PutUint64(hdr[104:112], math.Float64bits(w.bounds.Max.Y))
	binary.LittleEndian.PutUint32(hdr[112:116], crc32.Checksum(w.nodes, flatCastagnoli))
	binary.LittleEndian.PutUint32(hdr[124:128], crc32.Checksum(hdr[:124], flatCastagnoli))
	if _, err := out.Write(hdr); err != nil {
		return err
	}
	_, err := out.Write(w.nodes)
	return err
}

// FlatTree is a decoded flat snapshot: opening validates both
// checksums and every structural invariant, then decodes the node
// section once into the node versions a mutable tree keeps (arena.go:
// child references by pointer). It is not an index; Adopt and
// AdoptRPlus make a mutable tree over the very same nodes, which is the
// one way an image is read.
type FlatTree struct {
	name     string
	covering bool
	gen      uint64
	size     int
	depth    int
	bounds   geom.Rect
	hasBound bool
	nodes    []node // in file (post-) order
	root     *node
	// minCap: smallest capacity at which every node fits its recorded cost.
	minCap int
}

// OpenFlatBytes decodes a flat snapshot from memory. Arbitrary or
// corrupted input yields an error (wrapping pagefile.ErrCorrupt for
// anything structurally wrong) — never a panic, never wrong entries.
func OpenFlatBytes(data []byte) (*FlatTree, error) {
	if len(data) < flatHeaderSize {
		return nil, flatCorrupt("%d bytes, need at least %d for the header", len(data), flatHeaderSize)
	}
	hdr := data[:flatHeaderSize]
	if string(hdr[:8]) != string(flatMagic) {
		return nil, flatCorrupt("bad magic %q", hdr[:8])
	}
	if got, want := binary.LittleEndian.Uint32(hdr[124:128]), crc32.Checksum(hdr[:124], flatCastagnoli); got != want {
		return nil, flatCorrupt("header checksum mismatch")
	}
	if hs := binary.LittleEndian.Uint32(hdr[8:12]); hs != flatHeaderSize {
		return nil, flatCorrupt("unsupported header size %d", hs)
	}
	flags := binary.LittleEndian.Uint32(hdr[12:16])
	nodesLen := binary.LittleEndian.Uint64(hdr[32:40])
	if nodesLen != uint64(len(data)-flatHeaderSize) {
		return nil, flatCorrupt("node section length %d does not match file (%d bytes after header)",
			nodesLen, len(data)-flatHeaderSize)
	}
	nodes := data[flatHeaderSize:]
	if got, want := binary.LittleEndian.Uint32(hdr[112:116]), crc32.Checksum(nodes, flatCastagnoli); got != want {
		return nil, flatCorrupt("node section checksum mismatch")
	}
	size := binary.LittleEndian.Uint64(hdr[40:48])
	depth := binary.LittleEndian.Uint32(hdr[48:52])
	nodeCount := binary.LittleEndian.Uint32(hdr[52:56])
	if depth < 1 || uint64(depth) > uint64(nodeCount)+1 {
		return nil, flatCorrupt("depth %d out of range for %d nodes", depth, nodeCount)
	}
	if size > uint64(len(nodes)) {
		// Each stored entry occupies at least one 40-byte record slot
		// in some leaf, so size can never exceed the section length.
		return nil, flatCorrupt("size %d exceeds node section length %d", size, len(nodes))
	}
	nameLen := int(hdr[56])
	if nameLen > flatMaxName {
		return nil, flatCorrupt("name length %d exceeds %d", nameLen, flatMaxName)
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
	if uint64(nodeCount)*flatNodeHdrSize > uint64(len(nodes)) {
		return nil, flatCorrupt("node count %d exceeds section capacity", nodeCount)
	}
	f.nodes = make([]node, nodeCount)
	// at maps a record's byte offset (from the file start) to its index in
	// f.nodes. Children are written before parents, so every child ref of
	// the record being decoded is already present.
	at := make(map[uint64]int, nodeCount)
	hasParent := make([]bool, nodeCount) // a tree, not a DAG: copy-on-write re-points a node's one parent
	leafEntries := uint64(0)
	k, off := 0, 0
	for ; off < len(nodes); k++ {
		if k == len(f.nodes) {
			return nil, flatCorrupt("more node records than the %d the header says", nodeCount)
		}
		if len(nodes)-off < flatNodeHdrSize {
			return nil, flatCorrupt("truncated node header at offset %d", flatHeaderSize+off)
		}
		rec := nodes[off:]
		level := int(binary.LittleEndian.Uint16(rec[0:2]))
		count := int(binary.LittleEndian.Uint16(rec[2:4]))
		cost := binary.LittleEndian.Uint32(rec[4:8])
		if cost < 1 {
			return nil, flatCorrupt("node at offset %d has zero access cost", flatHeaderSize+off)
		}
		if level >= int(depth) {
			return nil, flatCorrupt("node level %d beyond depth %d", level, depth)
		}
		if len(nodes)-off-flatNodeHdrSize < count*entrySize {
			return nil, flatCorrupt("node at offset %d overruns the section (count %d)", flatHeaderSize+off, count)
		}
		n := &f.nodes[k]
		n.level, n.cost = level, cost
		if count > 0 {
			n.entries = make([]Entry, count)
		}
		if level == 0 {
			leafEntries += uint64(count)
		}
		f.minCap = max(f.minCap, (count+int(cost)-1)/int(cost))
		eo := off + flatNodeHdrSize
		for i := 0; i < count; i++ {
			e := &n.entries[i]
			e.Rect.Min.X = readF64(nodes[eo:])
			e.Rect.Min.Y = readF64(nodes[eo+8:])
			e.Rect.Max.X = readF64(nodes[eo+16:])
			e.Rect.Max.Y = readF64(nodes[eo+24:])
			ref := binary.LittleEndian.Uint64(nodes[eo+32:])
			if level > 0 {
				child, ok := at[ref]
				if !ok {
					return nil, flatCorrupt("node at offset %d references unknown child offset %d", flatHeaderSize+off, ref)
				}
				if cl := f.nodes[child].level; cl != level-1 {
					return nil, flatCorrupt("child at offset %d has level %d under a level-%d parent", ref, cl, level)
				}
				if hasParent[child] {
					return nil, flatCorrupt("node at offset %d is referenced twice", ref)
				}
				hasParent[child] = true
				e.Child = &f.nodes[child]
			} else {
				e.OID = ref
			}
			eo += entrySize
		}
		at[uint64(flatHeaderSize+off)] = k
		off = eo
	}
	if k != len(f.nodes) {
		return nil, flatCorrupt("decoded %d nodes, header says %d", k, nodeCount)
	}
	rootOff := binary.LittleEndian.Uint64(hdr[24:32])
	root, ok := at[rootOff]
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
	f.root = &f.nodes[root]
	// Every record is now in the one tree under the root: the size the
	// header states must be what it stores.
	stored := leafEntries
	if !f.covering {
		stored = uint64(len(f.Records()))
	}
	if stored != size {
		return nil, flatCorrupt("header says %d entries, the tree stores %d", size, stored)
	}
	return f, nil
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
	var seen, inLeaf map[Record]int
	if !f.covering {
		seen, inLeaf = make(map[Record]int, f.size), map[Record]int{}
	}
	var walk func(n *node)
	walk = func(n *node) {
		if !n.isLeaf() {
			for i := range n.entries {
				walk(n.entries[i].Child)
			}
			return
		}
		clear(inLeaf)
		for _, e := range n.entries {
			rec := Record{Rect: e.Rect, OID: e.OID}
			if seen != nil {
				if inLeaf[rec]++; inLeaf[rec] <= seen[rec] {
					continue
				}
				seen[rec]++
			}
			recs = append(recs, rec)
		}
	}
	walk(f.root)
	return recs
}
