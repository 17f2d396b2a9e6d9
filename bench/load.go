package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
	"sync"
	"time"

	"mbrtopo/internal/geom"
	"mbrtopo/internal/topo"
)

// Request kinds: the endpoint mix a workload is made of.
const (
	kQuery = iota
	kConj
	kKNN
	kJoin
	kInsert
	kDelete
	numKinds
)

var kindNames = [numKinds]string{"query", "conj", "knn", "join", "insert", "delete"}

// request is one pre-built call: the bytes sent on the wire plus the
// decoded parameters the oracle and the traced pass replay it from.
type request struct {
	kind   uint8
	method string
	path   string
	body   []byte

	rels, rels2 topo.Set
	ref, ref2   geom.Rect
	pt          geom.Point
	k           int
	oid         uint64
}

func (r request) isWrite() bool { return r.kind == kInsert || r.kind == kDelete }

// sample is one completed request as the generator saw it.
type sample struct {
	kind   uint8
	ok     bool
	done   time.Duration // completion time since the window opened
	lat    time.Duration // send → last byte of the response
	lines  int           // NDJSON result lines, the trailer excluded
	nbytes int
}

// newHTTPClient returns the one keep-alive client the generator, the
// probes and the scrapes share; it never opens more than conns
// connections to topod.
func newHTTPClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 120 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
}

// trailer is the last NDJSON line of a query or join stream, or the
// whole body of a mutation acknowledgement.
type trailer struct {
	Stats *struct {
		NodeAccesses uint64 `json:"node_accesses"`
		Candidates   int    `json:"candidates"`
		Pairs        int    `json:"pairs"`
	} `json:"stats"`
	OK    bool   `json:"ok"`
	Error string `json:"error"`
}

// exchange sends one request and reads the response into buf (reused
// across calls). It counts result lines with a byte scan and decodes
// only the trailer, so the generator spends its CPU on the socket and
// not on JSON. A non-200 status, a missing trailer or an error line all
// report ok=false; a transport error is returned as err.
func exchange(client *http.Client, base string, rq *request, buf *bytes.Buffer) (s sample, tr trailer, err error) {
	var body io.Reader
	if rq.body != nil {
		body = bytes.NewReader(rq.body)
	}
	hr, err := http.NewRequest(rq.method, base+rq.path, body)
	if err != nil {
		return s, tr, err
	}
	if rq.body != nil {
		hr.Header.Set("Content-Type", "application/json")
	}
	s.kind = rq.kind
	start := time.Now()
	resp, err := client.Do(hr)
	if err != nil {
		return s, tr, err
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	s.lat = time.Since(start)
	if err != nil {
		return s, tr, err
	}
	raw := buf.Bytes()
	s.nbytes = len(raw)
	if resp.StatusCode != http.StatusOK {
		return s, tr, nil
	}
	if rq.kind == kKNN {
		// One JSON document, not a stream: one line.
		s.ok = true
		s.lines = 1
		return s, tr, nil
	}
	raw = bytes.TrimSuffix(raw, []byte("\n"))
	last := raw[bytes.LastIndexByte(raw, '\n')+1:]
	s.lines = bytes.Count(raw, []byte("\n"))
	if json.Unmarshal(last, &tr) != nil || tr.Error != "" {
		return s, tr, nil
	}
	s.ok = tr.Stats != nil || (rq.isWrite() && tr.OK)
	if rq.isWrite() {
		s.lines = 0
	}
	return s, tr, nil
}

// runClosedLoop drives one goroutine per stream: each sends its next
// request only after the previous response is complete. Client c starts
// at streams[c][from[c]] and wraps around; the loop ends at the first
// completion past window, which is answered but not sampled — unless it
// is the client's only one: a request that outlasts the window is a
// sample, not a gap. It returns the samples per client and how many
// requests each client had answered.
func runClosedLoop(client *http.Client, base string, streams [][]request, from []int, window time.Duration) ([][]sample, []int, error) {
	out := make([][]sample, len(streams))
	next := make([]int, len(streams))
	errs := make([]error, len(streams))
	var wg sync.WaitGroup
	start := time.Now()
	for c := range streams {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var buf bytes.Buffer
			i := from[c]
			for {
				rq := &streams[c][i%len(streams[c])]
				s, _, err := exchange(client, base, rq, &buf)
				if err != nil {
					errs[c] = fmt.Errorf("client %d, %s request %d: %w", c, kindNames[rq.kind], i, err)
					break
				}
				i++ // answered, so applied: the writer must not send it again
				s.done = time.Since(start)
				late := s.done > window
				if !late || len(out[c]) == 0 {
					out[c] = append(out[c], s)
				}
				if late {
					break
				}
			}
			next[c] = i
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, nil, err
		}
	}
	return out, next, nil
}

// runCount sends each client's first n requests in a closed loop — the
// warm-up — and fails on the first request that is not answered 200.
func runCount(client *http.Client, base string, streams [][]request, n int) error {
	errs := make([]error, len(streams))
	var wg sync.WaitGroup
	for c := range streams {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var buf bytes.Buffer
			for i := 0; i < n; i++ {
				rq := &streams[c][i%len(streams[c])]
				s, _, err := exchange(client, base, rq, &buf)
				if err == nil && !s.ok {
					err = fmt.Errorf("not answered 200 with a trailer: %.200s", buf.String())
				}
				if err != nil {
					errs[c] = fmt.Errorf("warm-up client %d, %s request %d: %w", c, kindNames[rq.kind], i, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// percentile is the nearest-rank q-quantile of sorted values.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func mean(vals []float64) float64 {
	sum := 0.0
	for _, v := range vals {
		sum += v
	}
	return sum / float64(len(vals))
}

func median(vals []float64) float64 {
	s := sortedCopy(vals)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// latMS returns the sorted latencies, in milliseconds, of the samples
// selected by keep.
func latMS(samples []sample, keep func(sample) bool) []float64 {
	var out []float64
	for _, s := range samples {
		if keep(s) {
			out = append(out, float64(s.lat)/float64(time.Millisecond))
		}
	}
	slices.Sort(out)
	return out
}

// phaseRate is the closed-loop rate of the selected samples of one
// phase, in requests per second: how many completed, over the time from
// the phase's start to the last of those completions. Dividing by the
// nominal phase length instead would count the request in flight at the
// deadline as zero or one.
func phaseRate(samples []sample, keep func(sample) bool) float64 {
	n, last := 0, time.Duration(0)
	for _, s := range samples {
		if keep(s) {
			n++
			last = max(last, s.done)
		}
	}
	if n == 0 {
		return 0
	}
	return float64(n) / last.Seconds()
}

func sortedCopy(vals []float64) []float64 {
	s := slices.Clone(vals)
	slices.Sort(s)
	return s
}
