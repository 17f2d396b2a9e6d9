package wal

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
)

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
	buf []byte
}

// OpenTail opens a read-only tailing view of the WAL at path,
// positioned at its record number from (0 is the first). Every frame
// is frameSize bytes, so the position is an offset whether or not the
// writer has flushed that far yet.
func OpenTail(path string, from uint64) (*Tail, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	return &Tail{f: f, off: int64(from) * frameSize, buf: make([]byte, chunk)}, nil
}

// Next returns the intact frames at the tail's position, as the file
// holds them, and how many records they are; n is 0 when the file holds
// no complete frame there yet (torn or still being written), and a later
// call returns it once the writer's flush lands. The bytes are valid
// until the next call. A frame that can never become intact (impossible
// length, undecodable payload under a valid checksum) is an error once
// the frames before it are returned: on a live log the writer only
// appends well-formed frames, so this means the file under the tail is
// not the log the caller thinks it is.
func (t *Tail) Next() (frames []byte, n int, err error) {
	frames, err = readRun(t.f, t.off, t.buf)
	if len(frames) > 0 {
		t.off += int64(len(frames))
		return frames, len(frames) / frameSize, nil
	}
	return nil, 0, err
}

// Close releases the tail's file descriptor.
func (t *Tail) Close() error { return t.f.Close() }

// Reader reads frames from a stream: the replication stream, which
// carries a log's frames as they sit on disk between frames of other
// lengths that it defines for itself. Read passes the bytes between
// frames through (a bootstrap's image). Bytes that arrived are final,
// so a frame that is not intact is a tear here, never "not yet".
type Reader struct{ br *bufio.Reader }

// NewReader reads frames from r.
func NewReader(r io.Reader) *Reader { return &Reader{br: bufio.NewReaderSize(r, chunk)} }

// Read reads raw bytes from the stream.
func (r *Reader) Read(p []byte) (int, error) { return r.br.Read(p) }

// Next returns the next frame: a record, with a nil payload, or the
// payload of a frame of another length, valid until the next call. A
// frame the stream ends inside, or one with a zero length or a failing
// checksum, is an error — a torn frame reads as it does at the tail of a
// file, and nothing past it is returned. io.EOF comes only at a frame
// boundary.
func (r *Reader) Next() (Record, []byte, error) {
	b, err := r.br.Peek(frameHeaderSize)
	if len(b) == 0 && err != nil {
		return Record{}, nil, err
	}
	_, size, ferr := frame(b)
	if ferr != nil {
		return Record{}, nil, ferr
	}
	if size > 0 {
		b, err = r.br.Peek(size)
	}
	payload, size, _ := frame(b)
	if payload == nil {
		if err == nil {
			return Record{}, nil, errors.New("wal: torn frame: a zero length or a failing checksum")
		}
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return Record{}, nil, fmt.Errorf("wal: torn frame after %d bytes: %w", len(b), err)
	}
	_, _ = r.br.Discard(size)
	if size != frameSize {
		return Record{}, payload, nil
	}
	rec, ok := decode(payload)
	if !ok {
		return Record{}, nil, fmt.Errorf("%w: undecodable payload under a valid checksum", errBadFrame)
	}
	return rec, nil, nil
}

// Buffered reports whether a whole frame is already buffered, so that
// Next returns it without reading the stream.
func (r *Reader) Buffered() bool {
	if r.br.Buffered() < frameHeaderSize {
		return false
	}
	b, _ := r.br.Peek(frameHeaderSize)
	_, size, _ := frame(b)
	return size > 0 && r.br.Buffered() >= size
}
