package geom

import (
	"math"
	"testing"
)

// TestSegmentPieces walks segments along the boundary of the square
// (0,0)–(10,10): the pieces come in order along the segment, a piece of
// 2·Eps or less is left out, and met sees every meeting point.
func TestSegmentPieces(t *testing.T) {
	square := Polygon{{0, 0}, {10, 0}, {10, 10}, {0, 10}}.BoundarySegments()
	cases := []struct {
		name   string
		s      Segment
		pieces [][2]float64
		met    []Point // distinct meeting points, in any order
	}{
		{"crosses the square", Segment{Point{-5, 5}, Point{15, 5}},
			[][2]float64{{0, 0.25}, {0.25, 0.75}, {0.75, 1}}, []Point{{0, 5}, {10, 5}}},
		{"touches a corner at its end", Segment{Point{10, 10}, Point{20, 20}},
			[][2]float64{{0, 1}}, []Point{{10, 10}}},
		{"runs along an edge", Segment{Point{-5, 0}, Point{15, 0}},
			[][2]float64{{0, 0.25}, {0.25, 0.75}, {0.75, 1}}, []Point{{0, 0}, {10, 0}}},
		{"leaves a sliver of 1.5·Eps", Segment{Point{-1.5 * Eps, 5}, Point{1 - 1.5*Eps, 5}},
			[][2]float64{{1.5 * Eps, 1}}, []Point{{0, 5}}},
	}
	for _, c := range cases {
		var pieces [][2]float64
		var met []Point
		c.s.pieces(square, func(p Point) {
			for _, q := range met {
				if q.Eq(p) {
					return
				}
			}
			met = append(met, p)
		}, func(t0, t1 float64) {
			pieces = append(pieces, [2]float64{t0, t1})
		})
		if len(pieces) != len(c.pieces) {
			t.Errorf("%s: pieces %v, want %v", c.name, pieces, c.pieces)
		} else {
			for i, p := range pieces {
				if math.Abs(p[0]-c.pieces[i][0]) > 1e-12 || math.Abs(p[1]-c.pieces[i][1]) > 1e-12 {
					t.Errorf("%s: pieces %v, want %v", c.name, pieces, c.pieces)
					break
				}
			}
		}
		if len(met) != len(c.met) {
			t.Errorf("%s: met %v, want %v", c.name, met, c.met)
			continue
		}
		for _, want := range c.met {
			found := false
			for _, p := range met {
				found = found || p.Eq(want)
			}
			if !found {
				t.Errorf("%s: met %v, want %v", c.name, met, c.met)
			}
		}
	}
}
