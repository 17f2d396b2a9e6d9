package server

import (
	"math"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"
)

// The two wrappers a route passes through (Server.Handler): instrument
// outermost on every route, admission inside it on the /v1 ones.

// admission is the load-shedding gate: a counting semaphore bounds the
// number of /v1 requests executing at once. When the semaphore is
// full, requests are rejected immediately with 429 Too Many Requests
// and a Retry-After hint — the service degrades by shedding load, not
// by queueing until every client times out.
type admission struct {
	sem        chan struct{}
	retryAfter time.Duration
	metrics    *Metrics
}

func newAdmission(maxInFlight int, retryAfter time.Duration, m *Metrics) *admission {
	return &admission{
		sem:        make(chan struct{}, maxInFlight),
		retryAfter: retryAfter,
		metrics:    m,
	}
}

// wrap gates next behind the semaphore. Admission never blocks: a
// saturated server answers 429 in O(1).
func (a *admission) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case a.sem <- struct{}{}:
			a.metrics.inFlight.Add(1)
			defer func() {
				a.metrics.inFlight.Add(-1)
				<-a.sem
			}()
			next.ServeHTTP(w, r)
		default:
			a.metrics.rejected.Add(1)
			shed(w, a.retryAfter, "server saturated: too many in-flight requests")
		}
	})
}

// shed answers 429 with the back-off hint, in whole seconds and at
// least one.
func shed(w http.ResponseWriter, retryAfter time.Duration, msg string) {
	secs := max(int64(math.Ceil(retryAfter.Seconds())), 1)
	w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	writeJSONError(w, http.StatusTooManyRequests, msg)
}

// statusWriter records the response code and keeps http.Flusher
// reachable through the wrapping.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// instrument wraps next with request counting and latency observation
// under the endpoint label. The label children are resolved here, when
// the route is built — the histogram at once, a status code's counter
// the first time the route answers with it — so a request costs two
// atomic adds and no lookup.
func (m *Metrics) instrument(endpoint string, next http.Handler) http.Handler {
	latency := m.requestLatency.with(endpoint)
	var byCode [1000]atomic.Pointer[counter] // net/http refuses codes outside 100–999
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		next.ServeHTTP(sw, r)
		elapsed := time.Since(start)
		code := sw.code
		if code == 0 {
			code = http.StatusOK
		}
		c := byCode[code].Load()
		if c == nil {
			c = m.requests.with(endpoint, strconv.Itoa(code))
			byCode[code].Store(c)
		}
		c.Add(1)
		latency.observe(elapsed)
	})
}
