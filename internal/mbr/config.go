// Package mbr implements the projection-based theory of the SIGMOD'95
// paper: the 169 (=13²) pairwise-disjoint relations between two MBRs
// (Figure 3), their classification into the eight rectangle-level
// topological relations (Figure 4), the candidate MBR configurations
// that may enclose objects in each mt2 relation (Table 1, Figures 5–8),
// the configurations for which the refinement step can be skipped
// (Figure 9), the propagation relations for intermediate R-tree nodes
// (Table 2, derived per axis from interval.Coverers), and the
// conceptual-neighbourhood expansion for non-crisp MBRs (Table 5).
package mbr

import (
	"fmt"

	"mbrtopo/internal/geom"
	"mbrtopo/internal/interval"
	"mbrtopo/internal/topo"
)

// NumConfigs is the number of distinct MBR projection configurations.
const NumConfigs = interval.NumRelations * interval.NumRelations // 169

// Config is one of the 169 projection relations between a primary MBR
// and a reference MBR: the pair of interval relations of the x and y
// projections. The paper writes it R i_j with i the x relation and j
// the y relation.
type Config struct {
	X, Y interval.Relation
}

// ConfigOf classifies the projection relation of the primary MBR p
// with respect to the reference MBR q.
func ConfigOf(p, q geom.Rect) Config {
	return Config{
		X: interval.Relate(p.XInterval(), q.XInterval()),
		Y: interval.Relate(p.YInterval(), q.YInterval()),
	}
}

// Index maps the configuration to a dense index in [0, 169).
func (c Config) Index() int {
	return int(c.X-1)*interval.NumRelations + int(c.Y-1)
}

// ConfigFromIndex is the inverse of Index.
func ConfigFromIndex(i int) Config {
	if i < 0 || i >= NumConfigs {
		panic(fmt.Sprintf("mbr.ConfigFromIndex: index %d out of range", i))
	}
	return Config{
		X: interval.Relation(i/interval.NumRelations) + 1,
		Y: interval.Relation(i%interval.NumRelations) + 1,
	}
}

// String renders the configuration in the paper's R i_j notation.
func (c Config) String() string { return fmt.Sprintf("R%d_%d", c.X, c.Y) }

// Converse returns the configuration of the reference with respect to
// the primary.
func (c Config) Converse() Config {
	return Config{X: c.X.Converse(), Y: c.Y.Converse()}
}

// AllConfigs returns the 169 configurations in index order.
func AllConfigs() []Config {
	out := make([]Config, NumConfigs)
	for i := range out {
		out[i] = ConfigFromIndex(i)
	}
	return out
}

// Topo returns the topological relation between the two MBRs viewed as
// regions themselves — the paper's Figure 4. The partition sizes are
// disjoint 48, meet 40, overlap 50, covers 14, covered_by 14,
// contains/inside/equal 1 each.
func (c Config) Topo() topo.Relation {
	x, y := c.X, c.Y
	// A projection gap in any axis separates the rectangles.
	if !x.SharesPoints() || !y.SharesPoints() {
		return topo.Disjoint
	}
	// Touching in some axis without a gap anywhere: boundary contact only.
	if !x.SharesInterior() || !y.SharesInterior() {
		return topo.Meet
	}
	switch {
	case x == interval.Equal && y == interval.Equal:
		return topo.Equal
	case x.CoversRef() && y.CoversRef():
		if x == interval.Contains && y == interval.Contains {
			return topo.Contains
		}
		return topo.Covers
	case x.CoveredByRef() && y.CoveredByRef():
		if x == interval.During && y == interval.During {
			return topo.Inside
		}
		return topo.CoveredBy
	default:
		return topo.Overlap
	}
}

// RelateRects returns the topological relation between two rectangles
// viewed as regions (a convenience composing ConfigOf and Topo).
func RelateRects(p, q geom.Rect) topo.Relation {
	return ConfigOf(p, q).Topo()
}
