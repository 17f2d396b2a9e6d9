package mbr

import (
	"math/bits"
	"strconv"
	"strings"

	"mbrtopo/internal/interval"
)

// ConfigSet is a set of MBR projection configurations, stored as a
// 169-bit bitmap. The zero value is the empty set.
type ConfigSet struct {
	bits [3]uint64
}

// NewConfigSet builds a set from the given configurations.
func NewConfigSet(cs ...Config) ConfigSet {
	var s ConfigSet
	for _, c := range cs {
		s.Add(c)
	}
	return s
}

// FullConfigSet returns the set of all 169 configurations.
func FullConfigSet() ConfigSet {
	var s ConfigSet
	for i := 0; i < NumConfigs; i++ {
		s.bits[i>>6] |= 1 << (i & 63)
	}
	return s
}

// ProductSet returns the set {(x, y) : x ∈ xs, y ∈ ys}, the common
// shape of the paper's Table 1 rows ("R i_j where i and j in {...}").
func ProductSet(xs, ys interval.Set) ConfigSet {
	var s ConfigSet
	for x := interval.Relation(1); x <= interval.NumRelations; x++ {
		if xs.Has(x) {
			s.orRow(x, ys)
		}
	}
	return s
}

// A configuration set is 13 rows of 13 bits: row x holds the y
// relations paired with x, bit y-1 at index (x-1)·13 + y-1 (Index). A
// row may straddle two words.

// row returns row x of s.
func (s ConfigSet) row(x interval.Relation) interval.Set {
	o := int(x-1) * interval.NumRelations
	w, sh := o>>6, o&63
	r := s.bits[w] >> sh
	if sh > 64-interval.NumRelations {
		r |= s.bits[w+1] << (64 - sh)
	}
	return interval.Set(r) & interval.FullSet()
}

// orRow adds ys to row x of s.
func (s *ConfigSet) orRow(x interval.Relation, ys interval.Set) {
	o := int(x-1) * interval.NumRelations
	w, sh := o>>6, o&63
	r := uint64(ys & interval.FullSet())
	s.bits[w] |= r << sh
	if sh > 64-interval.NumRelations {
		s.bits[w+1] |= r >> (64 - sh)
	}
}

// Add inserts c into the set.
func (s *ConfigSet) Add(c Config) {
	i := c.Index()
	s.bits[i>>6] |= 1 << (i & 63)
}

// Remove deletes c from the set.
func (s *ConfigSet) Remove(c Config) {
	i := c.Index()
	s.bits[i>>6] &^= 1 << (i & 63)
}

// Has reports whether c is in the set.
func (s ConfigSet) Has(c Config) bool {
	i := c.Index()
	return s.bits[i>>6]&(1<<(i&63)) != 0
}

// Union returns the union of the two sets.
func (s ConfigSet) Union(t ConfigSet) ConfigSet {
	for i := range s.bits {
		s.bits[i] |= t.bits[i]
	}
	return s
}

// Intersect returns the intersection of the two sets.
func (s ConfigSet) Intersect(t ConfigSet) ConfigSet {
	for i := range s.bits {
		s.bits[i] &= t.bits[i]
	}
	return s
}

// Minus returns s with all members of t removed.
func (s ConfigSet) Minus(t ConfigSet) ConfigSet {
	for i := range s.bits {
		s.bits[i] &^= t.bits[i]
	}
	return s
}

// Complement returns the complement with respect to all 169 configs.
func (s ConfigSet) Complement() ConfigSet {
	return FullConfigSet().Minus(s)
}

// IsEmpty reports whether the set has no members.
func (s ConfigSet) IsEmpty() bool {
	return s.bits[0] == 0 && s.bits[1] == 0 && s.bits[2] == 0
}

// Equal reports whether the two sets have the same members.
func (s ConfigSet) Equal(t ConfigSet) bool { return s.bits == t.bits }

// SubsetOf reports whether every member of s is in t.
func (s ConfigSet) SubsetOf(t ConfigSet) bool { return s.Minus(t).IsEmpty() }

// Len returns the number of configurations in the set.
func (s ConfigSet) Len() int {
	return bits.OnesCount64(s.bits[0]) + bits.OnesCount64(s.bits[1]) + bits.OnesCount64(s.bits[2])
}

// Configs returns the members in index order.
func (s ConfigSet) Configs() []Config {
	out := make([]Config, 0, s.Len())
	for i := 0; i < NumConfigs; i++ {
		if s.bits[i>>6]&(1<<(i&63)) != 0 {
			out = append(out, ConfigFromIndex(i))
		}
	}
	return out
}

// XRelations returns the set of x-axis interval relations appearing in
// the set, and similarly YRelations for the y axis.
func (s ConfigSet) XRelations() interval.Set {
	xs, _ := s.axes()
	return xs
}

// YRelations returns the y-axis interval relations appearing in s.
func (s ConfigSet) YRelations() interval.Set {
	_, ys := s.axes()
	return ys
}

// axes projects the set on both axes by reading its 13 rows: a query
// compiles its sets (Compile) as it starts, so this must not
// materialise Configs().
func (s ConfigSet) axes() (xs, ys interval.Set) {
	for x := interval.Relation(1); x <= interval.NumRelations; x++ {
		if r := s.row(x); r != 0 {
			xs, ys = xs.Add(x), ys|r
		}
	}
	return xs, ys
}

// String renders the set as "{R1_1 R1_2 ...}"; large sets are
// summarised by their cardinality.
func (s ConfigSet) String() string {
	if n := s.Len(); n > 24 {
		return "{" + strconv.Itoa(n) + " configs}"
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, c := range s.Configs() {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(c.String())
	}
	b.WriteByte('}')
	return b.String()
}
