package pagefile

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// flipByte XORs one byte of a file in place.
func flipByte(t *testing.T, path string, off int64) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var b [1]byte
	if _, err := f.ReadAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xFF
	if _, err := f.WriteAt(b[:], off); err != nil {
		t.Fatal(err)
	}
}

func TestDiskFileChecksumDetectsCorruption(t *testing.T) {
	d, path := newDisk(t, 64)
	id, err := d.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Write(id, []byte("precious payload")); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	// Flip a payload byte of the page: reopen succeeds (the header is
	// intact) but reading the page must surface ErrCorrupt, and Scrub
	// must name the page.
	flipByte(t, path, int64(id)*(64+pageTrailerSize)+5)
	re, err := OpenDiskFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	buf := make([]byte, 64)
	if err := re.Read(id, buf); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("read of corrupt page: %v", err)
	}
	bad, err := re.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if len(bad) != 1 || bad[0] != id {
		t.Fatalf("scrub reported %v, want [%d]", bad, id)
	}
}

func TestDiskFileScrubCleanAndSkipsFreed(t *testing.T) {
	d, _ := newDisk(t, 64)
	defer d.Close()
	var ids []PageID
	for i := 0; i < 4; i++ {
		id, err := d.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Write(id, []byte{byte(i), 1, 2, 3}); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	// Freeing rewrites the page's first bytes without re-checksumming;
	// Scrub must skip freed pages rather than flagging them.
	if err := d.Free(ids[2]); err != nil {
		t.Fatal(err)
	}
	bad, err := d.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if len(bad) != 0 {
		t.Fatalf("scrub of healthy file reported %v", bad)
	}
}

func TestDiskFileHeaderChecksum(t *testing.T) {
	d, path := newDisk(t, 64)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	flipByte(t, path, 13) // inside the next/freeHead fields
	if _, err := OpenDiskFile(path); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("open with corrupt header: %v", err)
	}
}

// craftHeader builds a header with a valid checksum so individual
// field validations (not the checksum) are exercised.
func craftHeader(pageSize, next, freeHead uint32) []byte {
	hdr := make([]byte, diskHeaderSize)
	copy(hdr, diskMagic)
	binary.LittleEndian.PutUint32(hdr[8:12], pageSize)
	binary.LittleEndian.PutUint32(hdr[12:16], next)
	binary.LittleEndian.PutUint32(hdr[16:20], freeHead)
	binary.LittleEndian.PutUint32(hdr[diskHeaderSize-4:], crc32.Checksum(hdr[:diskHeaderSize-4], castagnoli))
	return hdr
}

func TestDiskFileReopenEdgeCases(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, data []byte) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}

	cases := []struct {
		name    string
		path    string
		wantSub string
	}{
		{"wrong magic", write("magic.db", append([]byte("NOTATREE"), make([]byte, diskHeaderSize)...)), "bad magic"},
		{"truncated header", write("short.db", []byte(diskMagic+"xx")), "truncated header"},
		{"page size below range", write("tiny.db", craftHeader(12, 1, 0)), "out of range"},
		{"page size above range", write("huge.db", craftHeader(1<<30, 1, 0)), "out of range"},
		{"zero next id", write("zeronext.db", craftHeader(64, 0, 0)), "next page id is zero"},
		{"free head out of range", write("freerange.db", craftHeader(64, 1, 7)), "beyond allocation bound"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := OpenDiskFile(tc.path)
			if err == nil {
				t.Fatal("open succeeded on a damaged file")
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q does not mention %q", err, tc.wantSub)
			}
		})
	}
}

func TestDiskFileFreeListCycleDetected(t *testing.T) {
	d, path := newDisk(t, 64)
	a, err := d.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	b, err := d.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Free(a); err != nil {
		t.Fatal(err)
	}
	if err := d.Free(b); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	// The list is b → a → nil. Point a back at b to close the loop.
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	var ptr [4]byte
	binary.LittleEndian.PutUint32(ptr[:], uint32(b))
	if _, err := f.WriteAt(ptr[:], int64(a)*(64+pageTrailerSize)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	_, err = OpenDiskFile(path)
	if err == nil {
		t.Fatal("open succeeded on a cyclic free list")
	}
	if !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("error %q does not mention the cycle", err)
	}
}

func TestDiskFileTruncatedPageArea(t *testing.T) {
	d, path := newDisk(t, 64)
	for i := 0; i < 3; i++ {
		if _, err := d.Alloc(); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, 100); err != nil {
		t.Fatal(err)
	}
	_, err := OpenDiskFile(path)
	if err == nil {
		t.Fatal("open succeeded on a truncated page area")
	}
	if !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("error %q does not mention truncation", err)
	}
}
