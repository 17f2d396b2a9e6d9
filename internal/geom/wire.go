package geom

import (
	"math"
	"strconv"
)

// This file is the one renderer of a rectangle's wire form, the JSON
// array [minx,miny,maxx,maxy] — byte for byte what encoding/json gives
// for a []float64 of the four coordinates. The server's line writer
// calls it per line; the node arena calls it once per leaf version and
// keeps the bytes (rtree/text.go), so the two can never disagree.

// Finite reports whether JSON can carry all four coordinates: x-x is 0
// for every finite x and NaN otherwise.
func (r Rect) Finite() bool {
	return r.Min.X-r.Min.X == 0 && r.Min.Y-r.Min.Y == 0 && r.Max.X-r.Max.X == 0 && r.Max.Y-r.Max.Y == 0
}

// AppendWire appends the wire form of r, which must be Finite.
func (r Rect) AppendWire(b []byte) []byte {
	b = append(b, '[')
	b = appendFloat(b, r.Min.X)
	b = append(b, ',')
	b = appendFloat(b, r.Min.Y)
	b = append(b, ',')
	b = appendFloat(b, r.Max.X)
	b = append(b, ',')
	b = appendFloat(b, r.Max.Y)
	return append(b, ']')
}

// appendFloat is encoding/json's float64 rule: shortest round-trip
// digits, 'f' form unless the magnitude is below 1e-6 or at least
// 1e21, and then 'e' form with e-0N shortened to e-N.
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}
