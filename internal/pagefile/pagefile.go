// Package pagefile holds what the access methods share about pages
// without being pages themselves: the page counters a tree's node arena
// keeps (Stats) and the error of stored bytes that are not what was
// written (ErrCorrupt), which rtree.OpenFlat returns for an image that
// fails a check while it streams — a file, a replica's bootstrap —
// before it hands back any node. The paper's performance metric is the number of
// disk accesses per search; a tree charges every node access the pages
// that node fills at its page size (rtree's node arena), so counted page
// reads are the faithful analogue of the paper's measurements
// (hardware-independent, as a 1995 testbed is not reproducible).
// MemFile stays for the benchmark harness alone.
package pagefile

import (
	"errors"
	"fmt"
)

// ErrCorrupt is returned when stored bytes (an MBRFLAT1 image, see
// rtree.OpenFlat) fail their checksum or structural checks: they
// are not what was written, and serving them as nodes would silently
// return wrong query answers.
var ErrCorrupt = errors.New("pagefile: corrupt page")

// Stats counts page operations.
type Stats struct {
	Reads  uint64
	Writes uint64
	Allocs uint64
	Frees  uint64
}

// Sub returns the difference s − t, for measuring an operation window.
func (s Stats) Sub(t Stats) Stats {
	return Stats{
		Reads:  s.Reads - t.Reads,
		Writes: s.Writes - t.Writes,
		Allocs: s.Allocs - t.Allocs,
		Frees:  s.Frees - t.Frees,
	}
}

func (s Stats) String() string {
	return fmt.Sprintf("reads=%d writes=%d allocs=%d frees=%d", s.Reads, s.Writes, s.Allocs, s.Frees)
}

// MemFile is a page size and nothing more. It stays only for
// bench/fixtures.go, which builds an index with
// index.NewOnFile(kind, NewMemFile(size)); scripts/bench.pins lists both
// for the next change to bench/ to retire.
type MemFile struct{ pageSize int }

// NewMemFile returns a MemFile of the given page size.
func NewMemFile(pageSize int) *MemFile {
	if pageSize <= 0 {
		panic("pagefile: page size must be positive")
	}
	return &MemFile{pageSize: pageSize}
}

// PageSize returns the page size in bytes.
func (f *MemFile) PageSize() int { return f.pageSize }
