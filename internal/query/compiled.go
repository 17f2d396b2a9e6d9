package query

import (
	"sync/atomic"

	"mbrtopo/internal/mbr"
	"mbrtopo/internal/topo"
)

// setTests is one configuration set compiled for the filter descent
// (filterPreds): the set, its test at the leaves, and the test of its
// Table 2 propagation for a covering tree's nodes.
type setTests struct {
	cands      mbr.ConfigSet
	leaf, node mbr.Test
}

// compileSet compiles cands; a query class whose set is no relation
// set's (direction, line) compiles it as it starts.
func compileSet(cands mbr.ConfigSet) *setTests {
	return &setTests{cands: cands, leaf: mbr.Compile(cands), node: mbr.Compile(mbr.Propagation(cands))}
}

// relationTests holds every relation set's compiled tests, one table
// per mode — contiguous or not, crisp or not — filled as sets are first
// asked for: a set's tests depend on nothing else, so a request pays
// only for the window on its own reference. Two requests filling one
// slot together compile the same tests, and either is kept.
var relationTests [4][1 << 8]atomic.Pointer[setTests]

// testsFor returns the compiled tests of rels under the processor's
// crispness and the given contiguity.
func (p *Processor) testsFor(rels topo.Set, nonContiguous bool) *setTests {
	mode := 0
	if nonContiguous {
		mode |= 1
	}
	if p.NonCrisp {
		mode |= 2
	}
	slot := &relationTests[mode][rels]
	if t := slot.Load(); t != nil {
		return t
	}
	t := compileSet(p.candidateConfigs(rels, nonContiguous))
	slot.Store(t)
	return t
}
