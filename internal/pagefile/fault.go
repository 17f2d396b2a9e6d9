package pagefile

import (
	"errors"
	"sync"
)

// ErrInjected is the error returned by a FaultFile when a fault fires.
var ErrInjected = errors.New("pagefile: injected fault")

// FaultFile wraps a File and fails operations on demand — the failure
// -injection harness used by the test suites to verify that the access
// methods surface storage errors instead of panicking or corrupting
// their in-memory state.
type FaultFile struct {
	mu   sync.Mutex
	base File
	// countdown > 0: the n-th operation (of the armed kinds) fails.
	countdown  int
	failReads  bool
	failWrites bool
	failAllocs bool
	fired      bool
}

// NewFaultFile wraps base; no faults are armed initially.
func NewFaultFile(base File) *FaultFile { return &FaultFile{base: base} }

// FailAfter arms a single fault: the n-th subsequent operation of the
// selected kinds (reads/writes/allocs) returns ErrInjected.
func (f *FaultFile) FailAfter(n int, reads, writes, allocs bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.countdown = n
	f.failReads, f.failWrites, f.failAllocs = reads, writes, allocs
	f.fired = false
}

// Fired reports whether the armed fault has fired.
func (f *FaultFile) Fired() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.fired
}

// trip decrements the countdown for an armed operation kind and
// reports whether this operation must fail.
func (f *FaultFile) trip(kind bool) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !kind || f.countdown <= 0 {
		return false
	}
	f.countdown--
	if f.countdown == 0 {
		f.fired = true
		return true
	}
	return false
}

// PageSize returns the wrapped page size.
func (f *FaultFile) PageSize() int { return f.base.PageSize() }

// Alloc fails when an alloc fault fires.
func (f *FaultFile) Alloc() (PageID, error) {
	if f.trip(f.failAllocs) {
		return NilPage, ErrInjected
	}
	return f.base.Alloc()
}

// Read fails when a read fault fires.
func (f *FaultFile) Read(id PageID, buf []byte) error {
	if f.trip(f.failReads) {
		return ErrInjected
	}
	return f.base.Read(id, buf)
}

// Write fails when a write fault fires.
func (f *FaultFile) Write(id PageID, data []byte) error {
	if f.trip(f.failWrites) {
		return ErrInjected
	}
	return f.base.Write(id, data)
}

// Free passes through (frees are not separately injectable; arm writes
// to exercise structural mutation failures).
func (f *FaultFile) Free(id PageID) error { return f.base.Free(id) }

// Stats passes through.
func (f *FaultFile) Stats() Stats { return f.base.Stats() }

// ResetStats passes through.
func (f *FaultFile) ResetStats() { f.base.ResetStats() }

// NumPages passes through.
func (f *FaultFile) NumPages() int { return f.base.NumPages() }

// FaultFile implements File.
var _ File = (*FaultFile)(nil)
