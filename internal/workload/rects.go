package workload

import (
	"fmt"
	"math"
	"math/rand"

	"mbrtopo/internal/geom"
	"mbrtopo/internal/index"
)

// SizeClass selects one of the paper's three data files: rectangles of
// size at most 0.02%, 0.1% and 0.5% of the global area.
type SizeClass int

// The paper's size classes.
const (
	Small SizeClass = iota
	Medium
	Large
)

func (c SizeClass) String() string {
	switch c {
	case Small:
		return "small"
	case Medium:
		return "medium"
	case Large:
		return "large"
	}
	return fmt.Sprintf("workload.SizeClass(%d)", int(c))
}

// MaxAreaFraction returns the class's cap on rectangle area relative
// to the workspace area.
func (c SizeClass) MaxAreaFraction() float64 {
	switch c {
	case Small:
		return 0.0002 // 0.02%
	case Medium:
		return 0.001 // 0.1%
	case Large:
		return 0.005 // 0.5%
	}
	panic("workload: invalid size class")
}

// AllSizeClasses returns the three classes in the paper's order.
func AllSizeClasses() []SizeClass { return []SizeClass{Small, Medium, Large} }

// World is the global workspace of the experiments.
func World() geom.Rect { return geom.R(0, 0, 1000, 1000) }

// Dataset is one experimental setup: a data file of rectangles and a
// search file of query rectangles with similar size properties, as in
// the paper's Section 4.
type Dataset struct {
	Class   SizeClass
	Items   []index.Item
	Queries []geom.Rect
}

// NewDataset generates nData uniformly random data rectangles and
// nQueries query rectangles, sizes capped by the class (the paper's
// setup is 10,000 and 100). The generator is fully determined by the
// seed.
func NewDataset(class SizeClass, nData, nQueries int, seed int64) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	d := &Dataset{Class: class}
	d.Items = make([]index.Item, nData)
	for i := range d.Items {
		d.Items[i] = index.Item{Rect: RandomRect(rng, class), OID: uint64(i + 1)}
	}
	d.Queries = make([]geom.Rect, nQueries)
	for i := range d.Queries {
		d.Queries[i] = RandomRect(rng, class)
	}
	return d
}

// RandomRect draws one rectangle of the class: area uniform in
// (0, maxFraction·worldArea], aspect ratio log-uniform in [1/4, 4],
// position uniform inside the workspace.
func RandomRect(rng *rand.Rand, class SizeClass) geom.Rect {
	world := World()
	maxArea := class.MaxAreaFraction() * world.Area()
	area := maxArea * (0.05 + 0.95*rng.Float64())
	aspect := ratioLogUniform(rng, 0.25, 4)
	w := sqrtPos(area * aspect)
	h := area / w
	// Clamp pathological shapes to the workspace.
	if w > world.Width() {
		w = world.Width()
		h = area / w
	}
	if h > world.Height() {
		h = world.Height()
		w = area / h
	}
	x := world.Min.X + rng.Float64()*(world.Width()-w)
	y := world.Min.Y + rng.Float64()*(world.Height()-h)
	return geom.R(x, y, x+w, y+h)
}

// ClusteredDataset generates a skewed alternative to the uniform paper
// workload: nClusters Gaussian-ish clusters of rectangles. Used by the
// ablation experiments to test sensitivity to the uniformity
// assumption.
func ClusteredDataset(class SizeClass, nData, nQueries, nClusters int, seed int64) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	world := World()
	centers := make([]geom.Point, nClusters)
	for i := range centers {
		centers[i] = geom.Point{
			X: world.Min.X + rng.Float64()*world.Width(),
			Y: world.Min.Y + rng.Float64()*world.Height(),
		}
	}
	d := &Dataset{Class: class}
	draw := func() geom.Rect {
		c := centers[rng.Intn(nClusters)]
		base := RandomRect(rng, class)
		w, h := base.Width(), base.Height()
		spread := world.Width() * 0.05
		x := clamp(c.X+rng.NormFloat64()*spread, world.Min.X, world.Max.X-w)
		y := clamp(c.Y+rng.NormFloat64()*spread, world.Min.Y, world.Max.Y-h)
		return geom.R(x, y, x+w, y+h)
	}
	d.Items = make([]index.Item, nData)
	for i := range d.Items {
		d.Items[i] = index.Item{Rect: draw(), OID: uint64(i + 1)}
	}
	d.Queries = make([]geom.Rect, nQueries)
	for i := range d.Queries {
		d.Queries[i] = draw()
	}
	return d
}

// ObjectsFor materialises a contiguous region object (crisp polygon)
// for every item of the dataset, for experiments that exercise the
// refinement step. Deterministic given the seed.
func (d *Dataset) ObjectsFor(seed int64) map[uint64]geom.Polygon {
	rng := rand.New(rand.NewSource(seed))
	out := make(map[uint64]geom.Polygon, len(d.Items))
	for _, it := range d.Items {
		out[it.OID] = PolygonInRect(rng, it.Rect, 5+rng.Intn(8))
	}
	return out
}

func ratioLogUniform(rng *rand.Rand, lo, hi float64) float64 {
	return lo * math.Pow(hi/lo, rng.Float64())
}

func sqrtPos(v float64) float64 { return math.Sqrt(v) }

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
