package pagefile

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
)

// DiskFile is a File backed by an operating-system file, giving the
// access methods real persistence. Every page carries a CRC32-C
// trailer so a torn or bit-flipped page is detected on read instead of
// being decoded as a valid node. Layout:
//
//	offset 0:            header (one page slot)
//	offset id*slotSize:  page id (ids start at 1), payload ‖ crc32c
//
// where slotSize = pageSize + 4. Header: magic (8) | pageSize u32 |
// next u32 | freeHead u32 | userMeta (32 bytes) | crc32c u32 covering
// the preceding bytes. Freed pages form a linked list threaded through
// their first four bytes; the whole list is loaded (and validated
// against cycles and out-of-range ids) at open so that reads of freed
// pages are detected, like MemFile does. Freed pages are dead data and
// are not re-checksummed until reallocation.
//
// The header is flushed by Sync and Close (and after every Alloc/Free
// so a crashed process loses at most unsynced page payloads, not the
// allocation state).
type DiskFile struct {
	mu       sync.RWMutex
	f        *os.File
	pageSize int
	next     PageID
	freeHead PageID
	freeSet  map[PageID]PageID // id → next free
	userMeta [UserMetaSize]byte
	stats    counters
}

// UserMetaSize is the number of user metadata bytes persisted in the
// header (enough for an access method's root/depth/size record plus a
// WAL generation number).
const UserMetaSize = 32

const (
	diskMagic       = "MBRTOPO2"
	diskHeaderSize  = 8 + 4 + 4 + 4 + UserMetaSize + 4 // trailing crc32c
	pageTrailerSize = 4
	// maxDiskPageSize bounds the header's page-size field so a corrupt
	// header cannot drive allocations of absurd sizes.
	maxDiskPageSize = 1 << 24
)

var (
	errClosed = errors.New("pagefile: file is closed")

	// castagnoli is the CRC32-C polynomial table (hardware-accelerated
	// on amd64/arm64), shared by page and header checksums.
	castagnoli = crc32.MakeTable(crc32.Castagnoli)
)

// CreateDiskFile creates (or truncates) a disk-backed page file.
func CreateDiskFile(path string, pageSize int) (*DiskFile, error) {
	if pageSize < diskHeaderSize {
		return nil, fmt.Errorf("pagefile: page size %d below header size %d", pageSize, diskHeaderSize)
	}
	if pageSize > maxDiskPageSize {
		return nil, fmt.Errorf("pagefile: page size %d above maximum %d", pageSize, maxDiskPageSize)
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	d := &DiskFile{
		f:        f,
		pageSize: pageSize,
		next:     1,
		freeSet:  map[PageID]PageID{},
	}
	if err := d.writeHeader(); err != nil {
		f.Close()
		return nil, err
	}
	return d, nil
}

// OpenDiskFile opens an existing disk-backed page file, validating the
// header (magic, checksum, page-size range) and the free list (ids in
// range, no cycles) so a corrupt or truncated file fails cleanly
// instead of panicking or looping.
func OpenDiskFile(path string) (*DiskFile, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil, err
	}
	d, err := openDisk(f, path)
	if err != nil {
		f.Close()
		return nil, err
	}
	return d, nil
}

func openDisk(f *os.File, path string) (*DiskFile, error) {
	hdr := make([]byte, diskHeaderSize)
	if _, err := f.ReadAt(hdr, 0); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, fmt.Errorf("pagefile: %s: truncated header (%w)", path, err)
		}
		return nil, fmt.Errorf("pagefile: reading header: %w", err)
	}
	if string(hdr[:8]) != diskMagic {
		return nil, fmt.Errorf("pagefile: %s is not a page file (bad magic %q)", path, hdr[:8])
	}
	sum := binary.LittleEndian.Uint32(hdr[diskHeaderSize-4:])
	if crc32.Checksum(hdr[:diskHeaderSize-4], castagnoli) != sum {
		return nil, fmt.Errorf("%w: %s: header checksum mismatch", ErrCorrupt, path)
	}
	d := &DiskFile{
		f:        f,
		pageSize: int(binary.LittleEndian.Uint32(hdr[8:12])),
		next:     PageID(binary.LittleEndian.Uint32(hdr[12:16])),
		freeHead: PageID(binary.LittleEndian.Uint32(hdr[16:20])),
		freeSet:  map[PageID]PageID{},
	}
	copy(d.userMeta[:], hdr[20:20+UserMetaSize])
	if d.pageSize < diskHeaderSize || d.pageSize > maxDiskPageSize {
		return nil, fmt.Errorf("pagefile: %s: page size %d out of range [%d, %d]",
			path, d.pageSize, diskHeaderSize, maxDiskPageSize)
	}
	if d.next == NilPage {
		return nil, fmt.Errorf("pagefile: %s: next page id is zero", path)
	}
	if d.next > 1 {
		st, err := f.Stat()
		if err != nil {
			return nil, err
		}
		if want := d.offset(d.next); st.Size() < want {
			return nil, fmt.Errorf("pagefile: %s: page area truncated (%d bytes, need %d for %d pages)",
				path, st.Size(), want, d.next-1)
		}
	}
	// Walk the free list so freed-page accesses are detected. The walk
	// is bounded: every id must be in range and unseen.
	buf := make([]byte, 4)
	for id := d.freeHead; id != NilPage; {
		if id >= d.next {
			return nil, fmt.Errorf("pagefile: %s: free list references page %d beyond allocation bound %d",
				path, id, d.next)
		}
		if _, cycle := d.freeSet[id]; cycle {
			return nil, fmt.Errorf("pagefile: %s: free-list cycle at page %d", path, id)
		}
		if _, err := f.ReadAt(buf, d.offset(id)); err != nil {
			return nil, fmt.Errorf("pagefile: walking free list: %w", err)
		}
		next := PageID(binary.LittleEndian.Uint32(buf))
		d.freeSet[id] = next
		id = next
	}
	return d, nil
}

// slotSize is the on-disk footprint of one page: payload + checksum.
func (d *DiskFile) slotSize() int { return d.pageSize + pageTrailerSize }

func (d *DiskFile) offset(id PageID) int64 {
	return int64(id) * int64(d.slotSize())
}

func (d *DiskFile) writeHeader() error {
	hdr := make([]byte, diskHeaderSize)
	copy(hdr, diskMagic)
	binary.LittleEndian.PutUint32(hdr[8:12], uint32(d.pageSize))
	binary.LittleEndian.PutUint32(hdr[12:16], uint32(d.next))
	binary.LittleEndian.PutUint32(hdr[16:20], uint32(d.freeHead))
	copy(hdr[20:], d.userMeta[:])
	binary.LittleEndian.PutUint32(hdr[diskHeaderSize-4:], crc32.Checksum(hdr[:diskHeaderSize-4], castagnoli))
	_, err := d.f.WriteAt(hdr, 0)
	return err
}

// writePage writes payload (already pageSize bytes) plus its checksum
// as one slot. Caller holds the lock.
func (d *DiskFile) writePage(id PageID, payload []byte) error {
	slot := make([]byte, d.slotSize())
	copy(slot, payload)
	binary.LittleEndian.PutUint32(slot[d.pageSize:], crc32.Checksum(slot[:d.pageSize], castagnoli))
	_, err := d.f.WriteAt(slot, d.offset(id))
	return err
}

// verifyPage reads one slot into buf (len ≥ pageSize) and checks the
// checksum. Caller holds at least a read lock.
func (d *DiskFile) verifyPage(id PageID, buf []byte) error {
	if _, err := d.f.ReadAt(buf[:d.pageSize], d.offset(id)); err != nil {
		return err
	}
	var trailer [pageTrailerSize]byte
	if _, err := d.f.ReadAt(trailer[:], d.offset(id)+int64(d.pageSize)); err != nil {
		return err
	}
	if crc32.Checksum(buf[:d.pageSize], castagnoli) != binary.LittleEndian.Uint32(trailer[:]) {
		return fmt.Errorf("%w: page %d checksum mismatch", ErrCorrupt, id)
	}
	return nil
}

// PageSize returns the page size in bytes.
func (d *DiskFile) PageSize() int { return d.pageSize }

// UserMeta returns the persisted user metadata block.
func (d *DiskFile) UserMeta() [UserMetaSize]byte {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.userMeta
}

// SetUserMeta persists the user metadata block.
func (d *DiskFile) SetUserMeta(m [UserMetaSize]byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.f == nil {
		return errClosed
	}
	d.userMeta = m
	return d.writeHeader()
}

// Alloc reserves a fresh zeroed page.
func (d *DiskFile) Alloc() (PageID, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.f == nil {
		return NilPage, errClosed
	}
	var id PageID
	if d.freeHead != NilPage {
		id = d.freeHead
		d.freeHead = d.freeSet[id]
		delete(d.freeSet, id)
	} else {
		id = d.next
		d.next++
	}
	if err := d.writePage(id, nil); err != nil {
		return NilPage, err
	}
	d.stats.allocs.Add(1)
	return id, d.writeHeader()
}

// Read copies the page into buf after verifying its checksum; a torn
// or bit-flipped page surfaces as ErrCorrupt instead of decoding as a
// valid node. Reads share the lock (ReadAt is safe for concurrent
// use), so parallel traversals do not serialise on the disk file.
func (d *DiskFile) Read(id PageID, buf []byte) error {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if d.f == nil {
		return errClosed
	}
	if err := d.checkLive(id); err != nil {
		return err
	}
	if len(buf) < d.pageSize {
		return ErrBadSize
	}
	if err := d.verifyPage(id, buf); err != nil {
		return err
	}
	d.stats.reads.Add(1)
	return nil
}

// Write replaces the page contents (and its checksum).
func (d *DiskFile) Write(id PageID, data []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.f == nil {
		return errClosed
	}
	if err := d.checkLive(id); err != nil {
		return err
	}
	if len(data) > d.pageSize {
		return ErrBadSize
	}
	page := make([]byte, d.pageSize)
	copy(page, data)
	if err := d.writePage(id, page); err != nil {
		return err
	}
	d.stats.writes.Add(1)
	return nil
}

// Free releases the page onto the free list.
func (d *DiskFile) Free(id PageID) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.f == nil {
		return errClosed
	}
	if err := d.checkLive(id); err != nil {
		return err
	}
	var buf [4]byte
	binary.LittleEndian.PutUint32(buf[:], uint32(d.freeHead))
	if _, err := d.f.WriteAt(buf[:], d.offset(id)); err != nil {
		return err
	}
	d.freeSet[id] = d.freeHead
	d.freeHead = id
	d.stats.frees.Add(1)
	return d.writeHeader()
}

func (d *DiskFile) checkLive(id PageID) error {
	if id == NilPage || id >= d.next {
		return fmt.Errorf("%w: %d", ErrPageNotFound, id)
	}
	if _, freed := d.freeSet[id]; freed {
		return fmt.Errorf("%w: %d", ErrPageFreed, id)
	}
	return nil
}

// Scrub verifies the checksum of every live page and returns the ids
// that fail (unreadable pages count as corrupt). It takes the shared
// lock, so scrubbing can run concurrently with searches. Scrub does
// not touch the read counters: it is maintenance, not query work.
func (d *DiskFile) Scrub() ([]PageID, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if d.f == nil {
		return nil, errClosed
	}
	buf := make([]byte, d.pageSize)
	var bad []PageID
	for id := PageID(1); id < d.next; id++ {
		if _, freed := d.freeSet[id]; freed {
			continue
		}
		if err := d.verifyPage(id, buf); err != nil {
			bad = append(bad, id)
		}
	}
	return bad, nil
}

// Stats returns a snapshot of the counters.
func (d *DiskFile) Stats() Stats { return d.stats.snapshot() }

// ResetStats zeroes the counters.
func (d *DiskFile) ResetStats() { d.stats.reset() }

// NumPages returns the number of live pages.
func (d *DiskFile) NumPages() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return int(d.next) - 1 - len(d.freeSet)
}

// Sync flushes the header and file contents to stable storage.
func (d *DiskFile) Sync() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.f == nil {
		return errClosed
	}
	if err := d.writeHeader(); err != nil {
		return err
	}
	return d.f.Sync()
}

// Close flushes and closes the underlying file.
func (d *DiskFile) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.f == nil {
		return nil
	}
	if err := d.writeHeader(); err != nil {
		d.f.Close()
		d.f = nil
		return err
	}
	err := d.f.Close()
	d.f = nil
	return err
}

// DiskFile implements File.
var _ File = (*DiskFile)(nil)
