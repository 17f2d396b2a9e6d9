package server

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

// The /v1/replicate stream (written by replicate.go, read by
// follower.go) is a sequence of self-delimiting frames:
//
//	typ     u8
//	length  u32 little endian — payload bytes
//	crc32c  u32 little endian — over the payload
//	payload length bytes, per type:
//	    hello      mode u8 (0 resume, 1 bootstrap), gen u64, seq u64, snapSize u64
//	    snapChunk  raw flat-snapshot bytes
//	    snapEnd    (empty)
//	    record     gen u64, seq u64, wal payload (wal.PayloadSize bytes)
//	    rotate     newGen u64, 0 u64
//	    heartbeat  gen u64, seq u64
//
// A stream opens with exactly one hello. In bootstrap mode it is
// followed by snapChunk frames totalling snapSize bytes, then snapEnd;
// in resume mode the record tail starts immediately. Positions are
// (generation, sequence): the generation increments at each primary
// checkpoint, the sequence counts records within a generation starting
// at 1. A rotate frame marks a checkpoint observed mid-stream — the
// records that follow belong to the new generation, sequence restarting
// at 1. Heartbeats carry the primary's position so an idle follower can
// tell lag from a dead link.
//
// Every frame is checksummed, so a corrupted or truncated stream is
// detected at the frame layer and surfaces as a read error; the
// follower then reconnects and resumes from its last applied position,
// never applying a damaged or duplicate record.

// frameType tags a replication stream frame.
type frameType uint8

// The frame types, in the order they can appear on a stream.
const (
	frameHello     frameType = 1
	frameSnapChunk frameType = 2
	frameSnapEnd   frameType = 3
	frameRecord    frameType = 4
	frameRotate    frameType = 5
	frameHeartbeat frameType = 6
)

func (t frameType) String() string {
	switch t {
	case frameHello:
		return "hello"
	case frameSnapChunk:
		return "snapChunk"
	case frameSnapEnd:
		return "snapEnd"
	case frameRecord:
		return "record"
	case frameRotate:
		return "rotate"
	case frameHeartbeat:
		return "heartbeat"
	}
	return fmt.Sprintf("frameType(%d)", uint8(t))
}

const (
	frameHeaderSize = 1 + 4 + 4
	// snapChunkSize is how much snapshot a single snapChunk frame
	// carries; it also bounds every other payload, so a corrupted
	// length field cannot drive a giant allocation.
	snapChunkSize = 256 << 10
	maxPayload    = snapChunkSize
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// writeFrame writes one frame to w.
func writeFrame(w io.Writer, typ frameType, payload []byte) error {
	if len(payload) > maxPayload {
		return fmt.Errorf("repl: %s frame payload %d exceeds %d", typ, len(payload), maxPayload)
	}
	var hdr [frameHeaderSize]byte
	hdr[0] = byte(typ)
	binary.LittleEndian.PutUint32(hdr[1:5], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[5:9], crc32.Checksum(payload, castagnoli))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if len(payload) > 0 {
		if _, err := w.Write(payload); err != nil {
			return err
		}
	}
	return nil
}

// frameReader decodes frames from a stream, reusing one payload
// buffer. The returned payload slice is valid until the next readFrame
// call.
type frameReader struct {
	r   io.Reader
	hdr [frameHeaderSize]byte
	buf []byte
}

// readFrame reads and verifies the next frame. A short read, a bad
// checksum, or an impossible length is an error: the replication
// stream has no torn-tail tolerance — any damage means "drop the
// connection and resume from the last applied position".
func (fr *frameReader) readFrame() (frameType, []byte, error) {
	if _, err := io.ReadFull(fr.r, fr.hdr[:]); err != nil {
		return 0, nil, err
	}
	typ := frameType(fr.hdr[0])
	length := binary.LittleEndian.Uint32(fr.hdr[1:5])
	sum := binary.LittleEndian.Uint32(fr.hdr[5:9])
	if length > maxPayload {
		return 0, nil, fmt.Errorf("repl: %s frame length %d exceeds %d", typ, length, maxPayload)
	}
	if cap(fr.buf) < int(length) {
		fr.buf = make([]byte, length)
	}
	payload := fr.buf[:length]
	if _, err := io.ReadFull(fr.r, payload); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, fmt.Errorf("repl: %s frame payload: %w", typ, err)
	}
	if crc32.Checksum(payload, castagnoli) != sum {
		return 0, nil, fmt.Errorf("repl: %s frame checksum mismatch", typ)
	}
	return typ, payload, nil
}

// hello is the stream-opening frame: the primary's decision on how
// this follower catches up, and the position the stream starts from.
type hello struct {
	// bootstrap reports whether a snapshot transfer precedes the
	// record tail (the follower's requested position was not
	// resumable).
	bootstrap bool
	// gen and seq are the position the stream starts from: after the
	// snapshot (bootstrap) or the follower's own position (resume),
	// the next record frame carries seq+1 within gen.
	gen, seq uint64
	// snapSize is the exact snapshot byte length in bootstrap mode,
	// zero in resume mode.
	snapSize uint64
}

func encodeHello(h hello) []byte {
	p := make([]byte, 1+8+8+8)
	if h.bootstrap {
		p[0] = 1
	}
	binary.LittleEndian.PutUint64(p[1:9], h.gen)
	binary.LittleEndian.PutUint64(p[9:17], h.seq)
	binary.LittleEndian.PutUint64(p[17:25], h.snapSize)
	return p
}

func decodeHello(p []byte) (hello, error) {
	if len(p) != 1+8+8+8 || p[0] > 1 {
		return hello{}, fmt.Errorf("repl: malformed hello payload (%d bytes)", len(p))
	}
	return hello{
		bootstrap: p[0] == 1,
		gen:       binary.LittleEndian.Uint64(p[1:9]),
		seq:       binary.LittleEndian.Uint64(p[9:17]),
		snapSize:  binary.LittleEndian.Uint64(p[17:25]),
	}, nil
}

// encodeRecord encodes a record payload: the position (gen, seq) the
// record commits, followed by the raw WAL payload bytes.
func encodeRecord(gen, seq uint64, walPayload []byte) []byte {
	p := make([]byte, 8+8+len(walPayload))
	binary.LittleEndian.PutUint64(p[0:8], gen)
	binary.LittleEndian.PutUint64(p[8:16], seq)
	copy(p[16:], walPayload)
	return p
}

// decodeRecord splits a record payload into position and WAL payload.
func decodeRecord(p []byte) (gen, seq uint64, walPayload []byte, err error) {
	if len(p) <= 16 {
		return 0, 0, nil, fmt.Errorf("repl: malformed record payload (%d bytes)", len(p))
	}
	return binary.LittleEndian.Uint64(p[0:8]),
		binary.LittleEndian.Uint64(p[8:16]),
		p[16:], nil
}

// encodePosition encodes (gen, seq) — the rotate payload carries just
// a generation (seq unused), heartbeats carry both.
func encodePosition(gen, seq uint64) []byte {
	p := make([]byte, 16)
	binary.LittleEndian.PutUint64(p[0:8], gen)
	binary.LittleEndian.PutUint64(p[8:16], seq)
	return p
}

// decodePosition decodes a rotate or heartbeat payload.
func decodePosition(p []byte) (gen, seq uint64, err error) {
	if len(p) != 16 {
		return 0, 0, fmt.Errorf("repl: malformed position payload (%d bytes)", len(p))
	}
	return binary.LittleEndian.Uint64(p[0:8]), binary.LittleEndian.Uint64(p[8:16]), nil
}
