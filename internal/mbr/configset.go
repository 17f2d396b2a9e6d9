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
	for _, x := range xs.Relations() {
		for _, y := range ys.Relations() {
			s.Add(Config{x, y})
		}
	}
	return s
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

// axes projects the set on both axes by walking its set bits: a
// predicate builder calls this on every query, so it must not
// materialise Configs().
func (s ConfigSet) axes() (xs, ys interval.Set) {
	for w, word := range s.bits {
		for ; word != 0; word &= word - 1 {
			c := ConfigFromIndex(w<<6 + bits.TrailingZeros64(word))
			xs, ys = xs.Add(c.X), ys.Add(c.Y)
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
