package mbr

import (
	"math/bits"

	"mbrtopo/internal/interval"
	"mbrtopo/internal/topo"
)

// This file derives the paper's Table 2: the relations an intermediate
// R-tree node P must satisfy with respect to the reference MBR q so
// that the subtree under P may contain MBRs in a wanted configuration.
//
// The derivation is per axis: a node rectangle covers every rectangle
// stored beneath it, independently in x and y, so a node can lead to an
// MBR in configuration (i, j) exactly when the node's own configuration
// lies in Coverers(i) × Coverers(j) (interval.Coverers is itself
// derived by exhaustive enumeration). Because covering is transitive,
// the same propagation set applies at every level of the tree — the
// property the paper points out below its Table 2. Transitivity is
// asserted in tests: Propagation(Propagation(S)) == Propagation(S).

// Propagation returns the set of configurations an intermediate node
// may exhibit with respect to the reference MBR while still being able
// to contain a leaf MBR whose configuration lies in s.
func Propagation(s ConfigSet) ConfigSet {
	var out ConfigSet
	for w, word := range s.bits {
		for ; word != 0; word &= word - 1 {
			out = out.Union(coverProducts[w<<6+bits.TrailingZeros64(word)])
		}
	}
	return out
}

// coverProducts[i] is Coverers(x) × Coverers(y) for the configuration
// (x, y) of index i: what one leaf configuration contributes to a
// propagation set. Every filter descent starts by building one, so the
// 169 products are derived once here instead of per query.
var coverProducts = func() (t [NumConfigs]ConfigSet) {
	for i := range t {
		c := ConfigFromIndex(i)
		t[i] = ProductSet(interval.Coverers(c.X), interval.Coverers(c.Y))
	}
	return t
}()

// PropagationFor returns the node-level configuration set for a query
// on topological relation r (Propagation of the Table 1 row).
func PropagationFor(r topo.Relation) ConfigSet {
	return Propagation(Candidates(r))
}

// NodeRelations returns the paper's Table 2 row for relation r: the
// set of topological relations (Figure 4 classes) that an intermediate
// node's rectangle may have with the reference MBR when the node can
// contain qualifying MBRs. This is the presentation the paper prints;
// query processing itself uses the finer PropagationFor sets.
func NodeRelations(r topo.Relation) topo.Set {
	var out topo.Set
	for _, c := range PropagationFor(r).Configs() {
		out = out.Add(c.Topo())
	}
	return out
}
