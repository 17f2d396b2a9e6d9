package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// PayloadSize is the byte length of an encoded Record payload (the
// bytes a WAL frame checksums). The replication stream ships record
// payloads in exactly this encoding, so a follower's WAL is
// byte-compatible with its primary's.
const PayloadSize = payloadSize

// MarshalRecord encodes a record as a frame payload (PayloadSize
// bytes): op u8, oid u64, rect 4×f64, all little endian.
func MarshalRecord(rec Record) []byte {
	frame := encode(rec)
	return frame[frameHeaderSize:]
}

// UnmarshalRecord decodes a frame payload produced by MarshalRecord,
// reporting false on a wrong length or an unknown op.
func UnmarshalRecord(payload []byte) (Record, bool) {
	return decode(payload)
}

// Tail is a non-blocking reader over a WAL file that a live Log may
// still be appending to (the replication streamer runs one per
// shipped generation). Next returns intact frames in order and
// reports "no complete frame yet" instead of treating a short or
// checksum-failing tail as final: a concurrently flushing batch is
// visible to the reader as an arbitrary prefix, which becomes intact
// on a later call. On a rotated-away generation the writer has closed
// (flushing every reservation) before the rotation is observable, so
// draining Next until it goes dry yields exactly the file's final
// record sequence — even after the file is unlinked, since Tail holds
// its own descriptor.
type Tail struct {
	f   *os.File
	off int64
	hdr [frameHeaderSize]byte
	buf []byte
}

// OpenTail opens a read-only tailing view of the WAL at path,
// positioned at the first frame.
func OpenTail(path string) (*Tail, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	return &Tail{f: f, buf: make([]byte, payloadSize)}, nil
}

// Next returns the next intact frame. ok is false when the file holds
// no complete frame at the current offset yet (torn or still being
// written); the same call succeeds later once the writer's flush
// lands. A frame that can never become intact (impossible length,
// undecodable payload under a valid checksum) is an error: on a live
// log the writer only appends well-formed frames, so this means the
// file under the tail is not the log the caller thinks it is.
func (t *Tail) Next() (rec Record, ok bool, err error) {
	if _, err := t.f.ReadAt(t.hdr[:], t.off); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return Record{}, false, nil
		}
		return Record{}, false, fmt.Errorf("wal: tail reading frame header: %w", err)
	}
	length := binary.LittleEndian.Uint32(t.hdr[0:4])
	sum := binary.LittleEndian.Uint32(t.hdr[4:8])
	if length != payloadSize {
		if length == 0 {
			// A zero length is what a partially visible header looks
			// like (the length field not flushed yet): retry later.
			return Record{}, false, nil
		}
		return Record{}, false, fmt.Errorf("wal: tail at offset %d: frame length %d (want %d)", t.off, length, payloadSize)
	}
	if _, err := t.f.ReadAt(t.buf[:length], t.off+frameHeaderSize); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return Record{}, false, nil
		}
		return Record{}, false, fmt.Errorf("wal: tail reading frame payload: %w", err)
	}
	if crc32.Checksum(t.buf[:length], castagnoli) != sum {
		// Indistinguishable from a mid-flush partial payload: report
		// "not yet" and re-verify on the next call.
		return Record{}, false, nil
	}
	r, decoded := decode(t.buf[:length])
	if !decoded {
		return Record{}, false, fmt.Errorf("wal: tail at offset %d: undecodable payload under a valid checksum", t.off)
	}
	t.off += frameHeaderSize + int64(length)
	return r, true, nil
}

// Close releases the tail's file descriptor.
func (t *Tail) Close() error { return t.f.Close() }
