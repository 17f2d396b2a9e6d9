package query

import "sync"

// oidSet is descend's set of delivered object ids: open addressing over
// a power-of-two table that a reset clears in place. Taken from a pool,
// it costs a query no allocation, no rehash as the answer grows past
// what an earlier one needed, and one multiply where a Go map hashes —
// the per-query map it replaces was a tenth of a window request's CPU.
type oidSet struct {
	slots []uint64 // 0 marks a free slot; id 0 itself is kept in zero
	n     int      // ids in slots
	zero  bool
}

// add inserts id and reports whether it was absent.
func (s *oidSet) add(id uint64) bool {
	if id == 0 {
		absent := !s.zero
		s.zero = true
		return absent
	}
	if 2*(s.n+1) > len(s.slots) {
		old := s.slots
		s.slots, s.n = make([]uint64, max(64, 2*len(old))), 0
		for _, id := range old {
			if id != 0 {
				s.add(id)
			}
		}
	}
	mask := uint64(len(s.slots) - 1)
	for i := id * 0x9E3779B97F4A7C15 >> 32 & mask; ; i = (i + 1) & mask {
		switch s.slots[i] {
		case id:
			return false
		case 0:
			s.slots[i] = id
			s.n++
			return true
		}
	}
}

// oidSetMaxSlots is the largest table that goes back to the pool: room
// for 4096 ids. Clearing costs what the table does, and one disjoint
// answer must not tax every window query after it.
const oidSetMaxSlots = 1 << 13

var oidSets = sync.Pool{New: func() any { return new(oidSet) }}

// release clears the set and returns it to the pool, unless it grew
// past oidSetMaxSlots.
func (s *oidSet) release() {
	if len(s.slots) > oidSetMaxSlots {
		return
	}
	clear(s.slots)
	s.n, s.zero = 0, false
	oidSets.Put(s)
}
