// Package pagefile simulates the disk under the spatial access
// methods: fixed-size pages with explicit allocation, read, write and
// free, plus access accounting. The paper's performance metric is the
// number of disk accesses per search; every R-tree node in this
// repository lives on exactly one page of a pagefile, so counted page
// reads are the faithful analogue of the paper's measurements
// (hardware-independent, as a 1995 testbed is not reproducible).
package pagefile

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// PageID identifies a page. Zero is never a valid page.
type PageID uint32

// NilPage is the zero PageID, used as a null reference.
const NilPage PageID = 0

// Common errors.
var (
	ErrPageNotFound = errors.New("pagefile: page not found")
	ErrBadSize      = errors.New("pagefile: data does not fit page size")
	// ErrCorrupt is returned when stored bytes (an MBRFLAT1 image, see
	// rtree.OpenFlatBytes) fail their checksum or structural checks:
	// they are not what was written, and serving them as nodes would
	// silently return wrong query answers.
	ErrCorrupt = errors.New("pagefile: corrupt page")
)

// Stats counts physical page operations.
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

// counters is the lock-free accounting shared by the File
// implementations: reads happen under shared locks, so the counters
// must be atomic for the totals to stay exact under concurrency.
type counters struct {
	reads, writes, allocs, frees atomic.Uint64
}

func (c *counters) snapshot() Stats {
	return Stats{
		Reads:  c.reads.Load(),
		Writes: c.writes.Load(),
		Allocs: c.allocs.Load(),
		Frees:  c.frees.Load(),
	}
}

func (c *counters) reset() {
	c.reads.Store(0)
	c.writes.Store(0)
	c.allocs.Store(0)
	c.frees.Store(0)
}

// File is a page-addressed storage device.
type File interface {
	// PageSize returns the fixed page size in bytes.
	PageSize() int
	// Alloc reserves a fresh zeroed page and returns its id.
	Alloc() (PageID, error)
	// Read copies the page contents into buf (len ≥ PageSize).
	Read(id PageID, buf []byte) error
	// Write replaces the page contents (len(data) ≤ PageSize).
	Write(id PageID, data []byte) error
	// Free releases the page for reuse.
	Free(id PageID) error
	// Stats returns a snapshot of the physical access counters.
	Stats() Stats
	// ResetStats zeroes the access counters.
	ResetStats()
	// NumPages returns the number of live pages.
	NumPages() int
}

// MemFile is an in-memory File. It is safe for concurrent use; reads
// take a shared lock and scale across goroutines (the access methods
// run searches concurrently), while Alloc/Write/Free are exclusive.
type MemFile struct {
	mu       sync.RWMutex
	pageSize int
	pages    map[PageID][]byte
	free     []PageID
	next     PageID
	stats    counters
}

// NewMemFile creates an in-memory page file with the given page size.
func NewMemFile(pageSize int) *MemFile {
	if pageSize <= 0 {
		panic("pagefile: page size must be positive")
	}
	return &MemFile{
		pageSize: pageSize,
		pages:    make(map[PageID][]byte),
		next:     1,
	}
}

// PageSize returns the page size in bytes.
func (f *MemFile) PageSize() int { return f.pageSize }

// Alloc reserves a fresh zeroed page.
func (f *MemFile) Alloc() (PageID, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	var id PageID
	if n := len(f.free); n > 0 {
		id = f.free[n-1]
		f.free = f.free[:n-1]
	} else {
		id = f.next
		f.next++
	}
	f.pages[id] = make([]byte, f.pageSize)
	f.stats.allocs.Add(1)
	return id, nil
}

// Read copies the page into buf. Reads share the lock, so concurrent
// traversals do not serialise on the simulated disk.
func (f *MemFile) Read(id PageID, buf []byte) error {
	f.mu.RLock()
	defer f.mu.RUnlock()
	p, ok := f.pages[id]
	if !ok {
		return fmt.Errorf("%w: %d", ErrPageNotFound, id)
	}
	if len(buf) < f.pageSize {
		return ErrBadSize
	}
	copy(buf, p)
	f.stats.reads.Add(1)
	return nil
}

// Write replaces the page contents.
func (f *MemFile) Write(id PageID, data []byte) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	p, ok := f.pages[id]
	if !ok {
		return fmt.Errorf("%w: %d", ErrPageNotFound, id)
	}
	if len(data) > f.pageSize {
		return ErrBadSize
	}
	copy(p, data)
	for i := len(data); i < f.pageSize; i++ {
		p[i] = 0
	}
	f.stats.writes.Add(1)
	return nil
}

// Free releases the page.
func (f *MemFile) Free(id PageID) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.pages[id]; !ok {
		return fmt.Errorf("%w: %d", ErrPageNotFound, id)
	}
	delete(f.pages, id)
	f.free = append(f.free, id)
	f.stats.frees.Add(1)
	return nil
}

// Stats returns a snapshot of the counters.
func (f *MemFile) Stats() Stats { return f.stats.snapshot() }

// ResetStats zeroes the counters.
func (f *MemFile) ResetStats() { f.stats.reset() }

// NumPages returns the number of live pages.
func (f *MemFile) NumPages() int {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return len(f.pages)
}
