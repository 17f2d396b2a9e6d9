// Package wal implements the mutation write-ahead log that makes the
// service's /v1/insert and /v1/delete survive crashes. The durable
// state of an index is (checkpoint image, WAL): the image is the tree
// as of the last checkpoint, the WAL is the ordered list of mutations
// applied since. Recovery adopts the image as the tree and replays
// the log; checkpointing replaces the image atomically and starts a
// fresh log generation.
//
// On disk the log is a flat sequence of frames:
//
//	length  u32 little endian — payload bytes
//	crc32c  u32 little endian — over the payload
//	payload length bytes:
//	    op    u8  (1 = insert, 2 = delete)
//	    oid   u64
//	    rect  4 × f64 (minX minY maxX maxY)
//
// A crash can leave a torn final frame (short header, short payload,
// or a checksum mismatch). Open tolerates exactly that: it replays the
// longest prefix of intact frames and truncates the tail, so the log
// is append-ready again. Corruption is indistinguishable from a torn
// tail, which is safe because every record past the tear was never
// acknowledged with its fsync policy satisfied. The replication stream
// carries these frames byte for byte, and its reader (Reader) decodes
// them with the same function, so a tear on the wire reads as one on
// disk does.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"sync"

	"mbrtopo/internal/geom"
)

// Op is a mutation kind.
type Op uint8

// The logged mutation kinds.
const (
	OpInsert Op = 1
	OpDelete Op = 2
)

func (o Op) String() string {
	switch o {
	case OpInsert:
		return "insert"
	case OpDelete:
		return "delete"
	}
	return fmt.Sprintf("wal.Op(%d)", uint8(o))
}

// Record is one logged mutation.
type Record struct {
	Op   Op
	OID  uint64
	Rect geom.Rect
}

// SyncPolicy selects when appends reach stable storage.
type SyncPolicy int

const (
	// SyncAlways fsyncs every group commit before its appenders are
	// acknowledged: no acknowledged mutation is ever lost, at the cost
	// of one fsync per batch of concurrent appends.
	SyncAlways SyncPolicy = iota
	// SyncNever leaves flushing to the OS: fastest, loses everything
	// since the last OS writeback on power failure (process crashes
	// alone lose nothing — the page cache survives them).
	SyncNever
)

func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncNever:
		return "never"
	}
	return fmt.Sprintf("wal.SyncPolicy(%d)", int(p))
}

// ParseSyncPolicy parses "always" or "never".
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "never":
		return SyncNever, nil
	}
	return 0, fmt.Errorf("wal: unknown fsync policy %q (want always or never)", s)
}

// Options tunes a Log.
type Options struct {
	// Policy is the fsync policy (default SyncAlways).
	Policy SyncPolicy
	// WriteHook, when set, runs before every append write with the
	// target offset and byte count, and failing it fails the append —
	// the fault-injection point durability tests use to exercise the
	// "applied but not logged" degradation path.
	WriteHook func(off int64, n int) error
}

const (
	frameHeaderSize = 8
	payloadSize     = 1 + 8 + 4*8
	frameSize       = frameHeaderSize + payloadSize
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Log is an append-only mutation log. Concurrent appenders are group
// committed: their records coalesce into one buffered write and one
// fsync per batch (see groupcommit.go). Record order is fixed at
// Reserve time; the caller provides ordering between Reserve and the
// in-memory application of the mutation (the server holds its own
// per-index mutation lock across both).
type Log struct {
	mu      sync.Mutex // file state: everything below, through gstats
	f       *os.File
	opts    Options
	size    int64 // bytes of intact frames
	records uint64
	gstats  GroupStats

	// Batch formation (groupcommit.go). gmu is ordered before mu and
	// is never held across IO.
	gmu    sync.Mutex
	cur    *batch // open batch accepting reservations, nil if none
	closed bool
}

// Open opens (or creates) the log at path and replays every intact
// record. A torn or corrupt tail is truncated away so the log is
// immediately append-ready. The returned records are in append order.
func Open(path string, opts Options) (*Log, []Record, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, err
	}
	recs, good, err := scan(f)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	if st.Size() > good {
		// Torn tail: cut it so the next append starts on a frame
		// boundary.
		if err := f.Truncate(good); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("wal: truncating torn tail: %w", err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, nil, err
		}
	}
	l := &Log{
		f:       f,
		opts:    opts,
		size:    good,
		records: uint64(len(recs)),
	}
	return l, recs, nil
}

// errBadFrame is a frame that can never become intact: a length no
// frame has, or a record's undecodable payload under a valid checksum.
var errBadFrame = errors.New("wal: malformed frame")

// chunk is how many bytes a reader takes at once: recovery and the
// replication tail read 1024 frames a call, the stream reader buffers as
// much.
const chunk = 1024 * frameSize

// frame decodes the frame at the head of b. It is the one decoder of
// every reader of frames: recovery (scan), the replication tail (Tail)
// and the replication stream (Reader). size is the frame's byte length
// as its header gives it, 0 while b is shorter than a header or the
// length is zero. payload is nil unless b holds all size bytes under a
// valid checksum; a frame without one is not intact, which on a live
// file is also what a write still in flight looks like, and anywhere
// else is a tear. A length over payloadSize is errBadFrame; a shorter
// one is a frame the replication stream defines for itself.
func frame(b []byte) (payload []byte, size int, err error) {
	if len(b) < frameHeaderSize {
		return nil, 0, nil
	}
	length := binary.LittleEndian.Uint32(b[0:4])
	switch {
	case length == 0:
		return nil, 0, nil
	case length > payloadSize:
		return nil, 0, fmt.Errorf("%w: length %d (want %d)", errBadFrame, length, payloadSize)
	}
	size = frameHeaderSize + int(length)
	if len(b) < size || crc32.Checksum(b[frameHeaderSize:size], castagnoli) != binary.LittleEndian.Uint32(b[4:8]) {
		return nil, size, nil
	}
	return b[frameHeaderSize:size], size, nil
}

// intact counts the intact records b begins with. A frame that can never
// become one — another length, an undecodable payload — is errBadFrame.
func intact(b []byte) (n int, err error) {
	for ; ; n++ {
		payload, size, err := frame(b[n*frameSize:])
		if err == nil && size != 0 && size != frameSize {
			err = fmt.Errorf("%w: length %d (want %d)", errBadFrame, size-frameHeaderSize, payloadSize)
		}
		if err != nil || payload == nil {
			return n, err
		}
		if _, ok := decode(payload); !ok {
			return n, fmt.Errorf("%w: undecodable payload under a valid checksum", errBadFrame)
		}
	}
}

// readRun reads the file at off into buf and returns the run of intact
// records at its head, as the frames' own bytes. Recovery (scan) and the
// replication tail (Tail.Next) read every frame through it and differ
// only in what they make of the first frame that is not intact.
func readRun(f *os.File, off int64, buf []byte) ([]byte, error) {
	n, err := f.ReadAt(buf, off)
	if err != nil && err != io.EOF {
		return nil, fmt.Errorf("wal: reading at offset %d: %w", off, err)
	}
	k, err := intact(buf[:n])
	if err != nil {
		err = fmt.Errorf("%w at offset %d", err, off+int64(k*frameSize))
	}
	return buf[:k*frameSize], err
}

// scan decodes intact frames from the start of f and returns them with
// the byte offset of the first tear (== file size when none). Every
// frame that is not intact is a tear, torn or corrupt alike.
func scan(f *os.File) ([]Record, int64, error) {
	var (
		recs []Record
		off  int64
	)
	buf := make([]byte, chunk)
	for {
		run, err := readRun(f, off, buf)
		if err != nil && !errors.Is(err, errBadFrame) {
			return nil, 0, err
		}
		off += int64(len(run))
		full := len(run) == len(buf)
		for ; len(run) > 0; run = run[frameSize:] {
			rec, _ := decode(run[frameHeaderSize:frameSize])
			recs = append(recs, rec)
		}
		if !full {
			return recs, off, nil
		}
	}
}

func decode(payload []byte) (Record, bool) {
	if len(payload) != payloadSize {
		return Record{}, false
	}
	op := Op(payload[0])
	if op != OpInsert && op != OpDelete {
		return Record{}, false
	}
	f64 := func(i int) float64 {
		return math.Float64frombits(binary.LittleEndian.Uint64(payload[i:]))
	}
	return Record{
		Op:  op,
		OID: binary.LittleEndian.Uint64(payload[1:9]),
		Rect: geom.Rect{
			Min: geom.Point{X: f64(9), Y: f64(17)},
			Max: geom.Point{X: f64(25), Y: f64(33)},
		},
	}, true
}

// AppendFrame appends payload to dst as one frame: its length, its
// CRC32-C and the payload. A record's payload is payloadSize bytes; the
// replication stream frames its own markers with shorter ones.
func AppendFrame(dst, payload []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.Checksum(payload, castagnoli))
	return append(dst, payload...)
}

// appendRecord appends rec's frame to dst.
func appendRecord(dst []byte, rec Record) []byte {
	var p [payloadSize]byte
	p[0] = byte(rec.Op)
	binary.LittleEndian.PutUint64(p[1:9], rec.OID)
	binary.LittleEndian.PutUint64(p[9:17], math.Float64bits(rec.Rect.Min.X))
	binary.LittleEndian.PutUint64(p[17:25], math.Float64bits(rec.Rect.Min.Y))
	binary.LittleEndian.PutUint64(p[25:33], math.Float64bits(rec.Rect.Max.X))
	binary.LittleEndian.PutUint64(p[33:41], math.Float64bits(rec.Rect.Max.Y))
	return AppendFrame(dst, p[:])
}

// Sync flushes the log to stable storage regardless of policy.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return fmt.Errorf("wal: log is closed")
	}
	return l.f.Sync()
}

// Truncate discards every record (after a checkpoint made them
// redundant) and syncs the now-empty log. Reservations still in
// flight are flushed first, so no ticket is left dangling; records
// reserved after Truncate land at the start of the emptied log.
func (l *Log) Truncate() error {
	if err := l.Flush(); err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return fmt.Errorf("wal: log is closed")
	}
	if err := l.f.Truncate(0); err != nil {
		return err
	}
	l.size = 0
	l.records = 0
	return l.f.Sync()
}

// Records returns the number of live records in the log (replayed at
// open plus appended, minus truncations).
func (l *Log) Records() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.records
}

// Size returns the log's intact byte length.
func (l *Log) Size() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.size
}

// Close flushes pending reservations, syncs, and closes the log.
func (l *Log) Close() error {
	l.gmu.Lock()
	l.closed = true
	b := l.cur
	l.gmu.Unlock()
	if b != nil {
		// Commit in-flight reservations so their tickets resolve with
		// the records on disk rather than an error.
		if err := (&Ticket{l: l, b: b}).Wait(); err != nil {
			return err
		}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	syncErr := l.f.Sync()
	closeErr := l.f.Close()
	l.f = nil
	if syncErr != nil {
		return syncErr
	}
	return closeErr
}
