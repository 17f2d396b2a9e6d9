package topo

import (
	"fmt"
	"strings"
)

// Set is a set of mt2 relations, represented as a bitmask. The zero
// value is the empty set. A Set models a relation of lower qualitative
// resolution (a disjunction), as used by the paper's Section 5.
type Set uint8

// NewSet builds a set from the given relations.
func NewSet(rs ...Relation) Set {
	var s Set
	for _, r := range rs {
		s = s.Add(r)
	}
	return s
}

// ParseSet resolves relation names into a disjunctive set. A name is
// compared in lower case with spaces trimmed: one ParseRelation knows,
// "in" (In), or "not_disjoint", "notdisjoint" or "window" (NotDisjoint).
func ParseSet(names ...string) (Set, error) {
	var set Set
	for _, name := range names {
		switch name = strings.ToLower(strings.TrimSpace(name)); name {
		case "in":
			set = set.Union(In)
		case "not_disjoint", "notdisjoint", "window":
			set = set.Union(NotDisjoint)
		default:
			r, err := ParseRelation(name)
			if err != nil {
				return 0, err
			}
			set = set.Add(r)
		}
	}
	if set.IsEmpty() {
		return 0, fmt.Errorf("topo: empty relation set")
	}
	return set, nil
}

// FullSet contains all eight relations (the universal relation).
func FullSet() Set { return Set(1<<NumRelations - 1) }

// Add returns s with r included.
func (s Set) Add(r Relation) Set { return s | 1<<r }

// Has reports whether r is in the set.
func (s Set) Has(r Relation) bool { return s&(1<<r) != 0 }

// Union returns the union of the two sets.
func (s Set) Union(t Set) Set { return s | t }

// Intersect returns the intersection of the two sets.
func (s Set) Intersect(t Set) Set { return s & t }

// Minus returns s with all members of t removed.
func (s Set) Minus(t Set) Set { return s &^ t }

// Complement returns the complement of s with respect to mt2.
func (s Set) Complement() Set { return FullSet() &^ s }

// IsEmpty reports whether the set has no members.
func (s Set) IsEmpty() bool { return s == 0 }

// Len returns the number of relations in the set.
func (s Set) Len() int {
	n := 0
	for _, r := range All() {
		if s.Has(r) {
			n++
		}
	}
	return n
}

// Relations returns the members in declaration order.
func (s Set) Relations() []Relation {
	out := make([]Relation, 0, s.Len())
	for _, r := range All() {
		if s.Has(r) {
			out = append(out, r)
		}
	}
	return out
}

// Converse returns the set of converses of the members.
func (s Set) Converse() Set {
	var out Set
	for _, r := range All() {
		if s.Has(r) {
			out = out.Add(r.Converse())
		}
	}
	return out
}

// SubsetOf reports whether every member of s is in t.
func (s Set) SubsetOf(t Set) bool { return s&^t == 0 }

// String renders the set as "{disjoint meet ...}".
func (s Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	for _, r := range All() {
		if s.Has(r) {
			if !first {
				b.WriteByte(' ')
			}
			b.WriteString(r.String())
			first = false
		}
	}
	b.WriteByte('}')
	return b.String()
}

// Common low-resolution relations from the paper's Section 5.
var (
	// In is the cadastral "in" relation: inside ∨ covered_by.
	In = NewSet(Inside, CoveredBy)
	// NotDisjoint is the traditional window-query relation of mt1.
	NotDisjoint = FullSet().Minus(NewSet(Disjoint))
)
