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
// acknowledged with its fsync policy satisfied.
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

// errBadFrame is a frame that can never become intact: a length other
// than payloadSize, or an undecodable payload under a valid checksum.
var errBadFrame = errors.New("wal: malformed frame")

// readFrame reads the frame at off into buf (frameSize bytes). ok is
// false, with a nil error, where no intact frame is there (yet): the
// file ends inside it, its length field is zero, or its checksum fails
// — each of which is also what a write still in flight looks like. A
// frame that can never become intact is errBadFrame. Recovery (scan)
// and the replication tail (Tail.Next) read every frame through it and
// differ only in what they make of a frame that is not intact.
func readFrame(f *os.File, off int64, buf []byte) (rec Record, ok bool, err error) {
	n, err := f.ReadAt(buf, off)
	if err != nil && err != io.EOF {
		return Record{}, false, fmt.Errorf("wal: reading the frame at offset %d: %w", off, err)
	}
	if n < frameHeaderSize {
		return Record{}, false, nil
	}
	switch length := binary.LittleEndian.Uint32(buf[0:4]); {
	case length == 0:
		return Record{}, false, nil
	case length != payloadSize:
		return Record{}, false, fmt.Errorf("%w: length %d at offset %d (want %d)", errBadFrame, length, off, payloadSize)
	}
	payload := buf[frameHeaderSize:]
	if n < frameSize || crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(buf[4:8]) {
		return Record{}, false, nil
	}
	if rec, ok = decode(payload); !ok {
		return Record{}, false, fmt.Errorf("%w: undecodable payload under a valid checksum at offset %d", errBadFrame, off)
	}
	return rec, true, nil
}

// scan decodes intact frames from the start of f and returns them with
// the byte offset of the first tear (== file size when none). Every
// frame that is not intact is a tear, torn or corrupt alike.
func scan(f *os.File) ([]Record, int64, error) {
	var (
		recs []Record
		off  int64
	)
	buf := make([]byte, frameSize)
	for {
		rec, ok, err := readFrame(f, off, buf)
		if err != nil && !errors.Is(err, errBadFrame) {
			return nil, 0, err
		}
		if !ok {
			return recs, off, nil
		}
		recs = append(recs, rec)
		off += frameSize
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

func encode(rec Record) []byte {
	frame := make([]byte, frameHeaderSize+payloadSize)
	p := frame[frameHeaderSize:]
	p[0] = byte(rec.Op)
	binary.LittleEndian.PutUint64(p[1:9], rec.OID)
	binary.LittleEndian.PutUint64(p[9:17], math.Float64bits(rec.Rect.Min.X))
	binary.LittleEndian.PutUint64(p[17:25], math.Float64bits(rec.Rect.Min.Y))
	binary.LittleEndian.PutUint64(p[25:33], math.Float64bits(rec.Rect.Max.X))
	binary.LittleEndian.PutUint64(p[33:41], math.Float64bits(rec.Rect.Max.Y))
	binary.LittleEndian.PutUint32(frame[0:4], payloadSize)
	binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(p, castagnoli))
	return frame
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
