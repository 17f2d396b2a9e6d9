// Command datagen emits the paper's synthetic workloads: a data file
// of rectangles and a search file of query rectangles, as CSV
// (oid,minx,miny,maxx,maxy) or as NDJSON matching the topod
// POST /v1/bulk line format.
//
// Usage:
//
//	datagen -class medium -n 10000 -queries 100 -seed 1995 \
//	        -out data.csv -qout queries.csv
//	datagen -class large -clustered -clusters 8 -out data.csv
//	datagen -n 100000 -format ndjson -out - -qout "" |
//	    curl -s --data-binary @- 'localhost:8080/v1/bulk?index=main'
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"mbrtopo/internal/workload"
)

func main() {
	var (
		class     = flag.String("class", "medium", "size class: small, medium, large")
		n         = flag.Int("n", 10000, "number of data rectangles")
		queries   = flag.Int("queries", 100, "number of query rectangles")
		seed      = flag.Int64("seed", 1995, "random seed")
		out       = flag.String("out", "data.csv", "data file path (- for stdout)")
		qout      = flag.String("qout", "queries.csv", "search file path (- for stdout, empty to skip)")
		clustered = flag.Bool("clustered", false, "generate clustered instead of uniform data")
		clusters  = flag.Int("clusters", 8, "number of clusters for -clustered")
		format    = flag.String("format", "csv", "output format: csv, ndjson (ndjson matches POST /v1/bulk lines)")
	)
	flag.Parse()

	cls, err := workload.ParseClass(*class)
	if err != nil {
		fatal(err)
	}
	writeItems, writeRects := workload.WriteItemsCSV, workload.WriteRectsCSV
	switch strings.ToLower(*format) {
	case "csv":
	case "ndjson":
		writeItems, writeRects = workload.WriteItemsNDJSON, workload.WriteRectsNDJSON
	default:
		fatal(fmt.Errorf("unknown format %q (want csv or ndjson)", *format))
	}
	var d *workload.Dataset
	if *clustered {
		d = workload.ClusteredDataset(cls, *n, *queries, *clusters, *seed)
	} else {
		d = workload.NewDataset(cls, *n, *queries, *seed)
	}

	if err := writeTo(*out, func(f *os.File) error {
		return writeItems(f, d.Items)
	}); err != nil {
		fatal(err)
	}
	if *qout != "" {
		if err := writeTo(*qout, func(f *os.File) error {
			return writeRects(f, d.Queries)
		}); err != nil {
			fatal(err)
		}
	}
	fmt.Fprintf(os.Stderr, "datagen: wrote %d rectangles (%s) and %d queries\n",
		len(d.Items), cls, len(d.Queries))
}

func writeTo(path string, write func(*os.File) error) error {
	if path == "-" {
		return write(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "datagen:", err)
	os.Exit(1)
}
