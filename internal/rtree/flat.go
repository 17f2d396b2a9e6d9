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
// format a tree is saved in. The layout replaces page ids with byte
// offsets — children are written before their parents (post-order), so
// every child reference points strictly backwards and a single
// sequential pass both validates and decodes the whole file. Two CRC32-C
// checksums (header, node section) make corruption detection
// deterministic: OpenFlatBytes either yields exactly the tree that was
// written or an error wrapping pagefile.ErrCorrupt, never wrong
// entries.
//
// Each node record carries the page-access cost of its paged
// counterpart (1 + overflow chain length), so TraversalStats of the
// tree that adopts the image are bit-identical to those of the tree it
// was written from — the paper's disk-access metric survives a save and
// a reopen.

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
// paged node's entry order — limit-bounded traversals and their stats
// depend on it.
const (
	flatHeaderSize  = 128
	flatNodeHdrSize = 8
	flatMaxName     = 23
)

var flatMagic = []byte("MBRFLAT1")

var flatCastagnoli = crc32.MakeTable(crc32.Castagnoli)

func flatCorrupt(format string, args ...any) error {
	return fmt.Errorf("%w: flat snapshot: %s", pagefile.ErrCorrupt, fmt.Sprintf(format, args...))
}

// flatWriter serializes one pinned tree version from its store.
type flatWriter struct {
	src    *store
	nodes  []byte
	count  uint32
	bounds geom.Rect
	found  bool
}

// writeNode appends the subtree under ref post-order and returns the
// byte offset (from the file start) of the subtree root's record.
func (w *flatWriter) writeNode(ref uint64) (uint64, error) {
	n, err := w.src.readNodeRef(ref)
	if err != nil {
		return 0, err
	}
	refs := make([]uint64, len(n.entries))
	if n.isLeaf() {
		for i := range n.entries {
			refs[i] = n.entries[i].OID
			w.bounds, w.found = covering(w.bounds, w.found, n.entries[i].Rect), true
		}
	} else {
		for i := range n.entries {
			off, err := w.writeNode(n.childRef(i))
			if err != nil {
				return 0, err
			}
			refs[i] = off
		}
	}
	off := uint64(flatHeaderSize + len(w.nodes))
	var hdr [flatNodeHdrSize]byte
	binary.LittleEndian.PutUint16(hdr[0:2], uint16(n.level))
	binary.LittleEndian.PutUint16(hdr[2:4], uint16(len(n.entries)))
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(n.accessCost()))
	w.nodes = append(w.nodes, hdr[:]...)
	for i := range n.entries {
		r := n.entries[i].Rect
		w.nodes = appendF64(w.nodes, r.Min.X)
		w.nodes = appendF64(w.nodes, r.Min.Y)
		w.nodes = appendF64(w.nodes, r.Max.X)
		w.nodes = appendF64(w.nodes, r.Max.Y)
		w.nodes = binary.LittleEndian.AppendUint64(w.nodes, refs[i])
	}
	w.count++
	return off, nil
}

func writeFlat(out io.Writer, src *store, root uint64, covering bool,
	name string, gen uint64, size, depth int) error {

	if len(name) > flatMaxName {
		name = name[:flatMaxName]
	}
	w := &flatWriter{src: src}
	rootOff, err := w.writeNode(root)
	if err != nil {
		return fmt.Errorf("rtree: writing flat snapshot: %w", err)
	}
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
	_, err = out.Write(w.nodes)
	return err
}

// FlatTree is a decoded flat snapshot: opening validates both
// checksums and every structural invariant, then decodes the node
// section once into the node versions a mutable tree keeps (arena.go:
// slot ids for child references, one immutable node version a slot).
// It is not an index; Adopt and AdoptRPlus make a mutable tree over the
// very same nodes, which is the one way an image is read.
type FlatTree struct {
	name     string
	covering bool
	gen      uint64
	size     int
	depth    int
	bounds   geom.Rect
	hasBound bool
	nodes    []node // slot id − 1 → node, in file (post-) order
	root     uint64 // slot id of the root
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
	f.nodes = make([]node, 0, nodeCount)
	// slotAt maps a record's byte offset (from the file start) to its
	// arena slot id. Children are written before parents, so every child
	// ref of the record being decoded is already present.
	slotAt := make(map[uint64]uint64, nodeCount)
	var hasParent []bool // by slot id − 1: a tree, not a DAG — Adopt frees what it replaces
	off := 0
	for off < len(nodes) {
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
		f.nodes = append(f.nodes, node{id: pagefile.PageID(len(f.nodes) + 1), level: level, cost: cost})
		n := &f.nodes[len(f.nodes)-1]
		if count > 0 {
			n.entries = make([]Entry, count)
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
				slot, ok := slotAt[ref]
				if !ok {
					return nil, flatCorrupt("node at offset %d references unknown child offset %d", flatHeaderSize+off, ref)
				}
				if cl := f.nodes[slot-1].level; cl != level-1 {
					return nil, flatCorrupt("child at offset %d has level %d under a level-%d parent", ref, cl, level)
				}
				if hasParent[slot-1] {
					return nil, flatCorrupt("node at offset %d is referenced twice", ref)
				}
				hasParent[slot-1] = true
				e.Child = pagefile.PageID(slot)
			} else {
				e.OID = ref
			}
			eo += entrySize
		}
		hasParent = append(hasParent, false)
		slotAt[uint64(flatHeaderSize+off)] = uint64(len(f.nodes))
		off = eo
	}
	if uint32(len(f.nodes)) != nodeCount {
		return nil, flatCorrupt("decoded %d nodes, header says %d", len(f.nodes), nodeCount)
	}
	rootOff := binary.LittleEndian.Uint64(hdr[24:32])
	rootSlot, ok := slotAt[rootOff]
	if !ok {
		return nil, flatCorrupt("root offset %d is not a node record", rootOff)
	}
	if rl := f.nodes[rootSlot-1].level; rl != int(depth)-1 {
		return nil, flatCorrupt("root level %d inconsistent with depth %d", rl, depth)
	}
	f.root = rootSlot
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
// the image's do not fit, is rebuilt from. An R+-tree registers one
// object in every leaf its interior reaches; its image yields each
// (rect, oid) once.
func (f *FlatTree) Records() []Record {
	recs := make([]Record, 0, f.size)
	var seen map[Record]struct{}
	if !f.covering {
		seen = make(map[Record]struct{}, f.size)
	}
	var walk func(n *node)
	walk = func(n *node) {
		for i := range n.entries {
			e := &n.entries[i]
			if !n.isLeaf() {
				walk(&f.nodes[e.Child-1])
				continue
			}
			rec := Record{Rect: e.Rect, OID: e.OID}
			if seen != nil {
				if _, dup := seen[rec]; dup {
					continue
				}
				seen[rec] = struct{}{}
			}
			recs = append(recs, rec)
		}
	}
	walk(&f.nodes[f.root-1])
	return recs
}
