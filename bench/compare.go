package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
)

func loadReport(path string) (*report, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep report
	if err := json.Unmarshal(raw, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) does (the exclusive method), which
// is what the benchmark driver applies to its own runs.
func quartiles(vals []float64) (q1, q3 float64) {
	s := slices.Clone(vals)
	slices.Sort(s)
	at := func(k int) float64 {
		pos := float64(k*(len(s)+1)) / 4 // 1-based rank
		lo := min(max(int(pos), 1), len(s)-1)
		return s[lo-1] + (pos-float64(lo))*(s[lo]-s[lo-1])
	}
	return at(1), at(3)
}

// spread is the interquartile range of vals as a share of their median;
// 0 when there are too few values to have one.
func spread(vals []float64) float64 {
	if len(vals) < 2 || median(vals) == 0 {
		return 0
	}
	q1, q3 := quartiles(vals)
	return (q3 - q1) / median(vals)
}

// medianError is the standard error of the median of vals as a share of
// that median: 1.2533 σ/√n, with σ taken from the interquartile range
// (IQR/1.349) so that a stalled slice does not widen it. The run reports
// medians of up to a hundred slices; one slice's scatter says little
// about how well their median is known, this does.
func medianError(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	return 1.2533 / 1.349 * spread(vals) / math.Sqrt(float64(len(vals)))
}

// worsening is how much worse b is than a, as a share of a, in the
// metric's own direction; negative when b is better.
func worsening(d metricDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if d.better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

func change(worse float64) string {
	if worse < 0 {
		return fmt.Sprintf("%5.1f%% better", -100*worse)
	}
	return fmt.Sprintf("%5.1f%% worse ", 100*worse)
}

// compareReports prints, for every workload of both reports, each
// end-to-end metric's change from a to b against its bound:
//
//	ok          b is no worse than a by more than the bound
//	regressed   it is
//	unresolved  twice the standard error of the difference of the two
//	            medians, from each side's per-slice values, is wider than
//	            the bound, so the two cannot be told apart at that
//	            resolution
//
// and each per-layer metric's change without a verdict. It exits 1 when
// anything regressed.
func compareReports(w io.Writer, pathA, pathB string) (int, error) {
	a, err := loadReport(pathA)
	if err != nil {
		return 2, err
	}
	b, err := loadReport(pathB)
	if err != nil {
		return 2, err
	}
	fmt.Fprintf(w, "a: %s  commit %s seed %d %ds\nb: %s  commit %s seed %d %ds\n",
		pathA, a.Commit, a.Seed, a.RunSeconds, pathB, b.Commit, b.Seed, b.RunSeconds)
	code := 0
	for _, ra := range a.Workloads {
		i := slices.IndexFunc(b.Workloads, func(r *result) bool { return r.Workload == ra.Workload })
		if i < 0 {
			fmt.Fprintf(w, "== %s: only in a ==\n", ra.Workload)
			continue
		}
		rb := b.Workloads[i]
		fmt.Fprintf(w, "== %s ==\n", ra.Workload)
		for _, d := range endToEnd {
			va, vb := ra.Metrics[d.name], rb.Metrics[d.name]
			sa, sb := ra.Slices[d.name], rb.Slices[d.name]
			if d.name == "setup_s" {
				sa, sb = ra.SetupRuns, rb.SetupRuns
			}
			worse := worsening(d, va, vb)
			ea, eb := medianError(sa), medianError(sb)
			verdict := "ok"
			switch {
			case 2*math.Hypot(ea, eb) > d.bound:
				verdict = "unresolved"
			case worse > d.bound:
				verdict = "regressed"
				code = 1
			}
			fmt.Fprintf(w, "  %-34s %12.4f → %12.4f %-8s %s (bound %2.0f%%, medians ±%4.1f%% / ±%4.1f%%)  %s\n",
				d.name, va, vb, d.unit, change(worse), 100*d.bound, 100*ea, 100*eb, verdict)
		}
		for _, d := range perLayer {
			va, okA := ra.Metrics[d.name]
			vb, okB := rb.Metrics[d.name]
			if !okA && !okB {
				continue
			}
			fmt.Fprintf(w, "  %-34s %12.4f → %12.4f %-8s %s\n", d.name, va, vb, d.unit, change(worsening(d, va, vb)))
		}
	}
	return code, nil
}
