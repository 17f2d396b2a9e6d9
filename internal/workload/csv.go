package workload

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"mbrtopo/internal/geom"
	"mbrtopo/internal/index"
)

// WriteItemsCSV writes "oid,minx,miny,maxx,maxy" rows.
func WriteItemsCSV(w io.Writer, items []index.Item) error {
	cw := csv.NewWriter(w)
	for _, it := range items {
		rec := []string{
			strconv.FormatUint(it.OID, 10),
			fmtF(it.Rect.Min.X), fmtF(it.Rect.Min.Y),
			fmtF(it.Rect.Max.X), fmtF(it.Rect.Max.Y),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadItemsCSV parses rows written by WriteItemsCSV.
func ReadItemsCSV(r io.Reader) ([]index.Item, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = 5
	var out []index.Item
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		oid, err := strconv.ParseUint(rec[0], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("workload: bad oid %q: %w", rec[0], err)
		}
		rect, err := parseRect(rec[1:])
		if err != nil {
			return nil, fmt.Errorf("workload: oid %d: %w", oid, err)
		}
		out = append(out, index.Item{OID: oid, Rect: rect})
	}
}

// WriteRectsCSV writes "minx,miny,maxx,maxy" rows (search files).
func WriteRectsCSV(w io.Writer, rects []geom.Rect) error {
	cw := csv.NewWriter(w)
	for _, r := range rects {
		rec := []string{fmtF(r.Min.X), fmtF(r.Min.Y), fmtF(r.Max.X), fmtF(r.Max.Y)}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadRectsCSV parses rows written by WriteRectsCSV.
func ReadRectsCSV(r io.Reader) ([]geom.Rect, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = 4
	var out []geom.Rect
	for row := 1; ; row++ {
		rec, err := cr.Read()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		rect, err := parseRect(rec)
		if err != nil {
			return nil, fmt.Errorf("workload: query row %d: %w", row, err)
		}
		out = append(out, rect)
	}
}

// parseRect parses "minx,miny,maxx,maxy". Every coordinate must be
// finite: strconv.ParseFloat accepts "inf" and "nan", and a rectangle
// reaching infinity passes Rect.Valid yet can never be written to the
// wire.
func parseRect(fields []string) (geom.Rect, error) {
	var v [4]float64
	for i := range v {
		f, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return geom.Rect{}, fmt.Errorf("bad coordinate %q: %w", fields[i], err)
		}
		v[i] = f
	}
	rect := geom.R(v[0], v[1], v[2], v[3])
	if !rect.Finite() {
		return geom.Rect{}, fmt.Errorf("non-finite coordinate in %v", rect)
	}
	if !rect.Valid() {
		return geom.Rect{}, fmt.Errorf("degenerate rect %v", rect)
	}
	return rect, nil
}

func fmtF(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
