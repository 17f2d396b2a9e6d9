package server

import (
	"fmt"
	"strings"

	"mbrtopo/internal/geom"
	"mbrtopo/internal/query"
	"mbrtopo/internal/topo"
)

// This file defines the wire shapes shared by the handlers, the
// bench/ harness, and the tests. Rectangles travel as
// [minx, miny, maxx, maxy].

// QueryRequest is the body of POST /v1/query.
type QueryRequest struct {
	// Index names the target index; empty selects the default.
	Index string `json:"index,omitempty"`
	// Relations is the disjunctive relation set, e.g. ["overlap"] or
	// ["inside","covered_by"]. The aliases "in" (inside ∨ covered_by)
	// and "not_disjoint"/"window" expand as in the paper's Section 5.
	Relations []string `json:"relations"`
	// Ref is the reference MBR.
	Ref []float64 `json:"ref"`
	// Limit, when positive, caps the number of streamed matches; the
	// traversal stops as soon as the limit is reached.
	Limit int `json:"limit,omitempty"`
	// TimeoutMS, when positive, bounds the request's processing time.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Relations2/Ref2, when present, make the query a conjunction: an
	// object must satisfy Relations against Ref AND Relations2 against
	// Ref2. One descent prunes by both terms; a combination the
	// composition table proves empty is answered without touching the
	// tree.
	Relations2 []string  `json:"relations2,omitempty"`
	Ref2       []float64 `json:"ref2,omitempty"`
	// Explain asks for what ran (query.Stats.Explain) in the trailing
	// stats line. Off by default so the stats line is byte-stable
	// across cache hits and misses.
	Explain bool `json:"explain,omitempty"`
}

// WireStats is query.Stats on the wire. Explain appears only when the
// request set QueryRequest.Explain.
type WireStats struct {
	NodeAccesses uint64 `json:"node_accesses"`
	Candidates   int    `json:"candidates"`
	Explain      string `json:"explain,omitempty"`
}

// QueryLine is one NDJSON line of a /v1/query response. Match lines
// carry OID+Rect; the final line carries Stats (or Error when the
// traversal failed mid-stream).
type QueryLine struct {
	OID   *uint64     `json:"oid,omitempty"`
	Rect  *[4]float64 `json:"rect,omitempty"`
	Stats *WireStats  `json:"stats,omitempty"`
	Error string      `json:"error,omitempty"`
}

// JoinRequest is the body of POST /v1/join.
type JoinRequest struct {
	// Left names the left index; empty selects the default.
	Left string `json:"left,omitempty"`
	// Right names the right index; empty joins Left with itself
	// (a self-join).
	Right string `json:"right,omitempty"`
	// Relations is the disjunctive relation set, with the same aliases
	// as /v1/query.
	Relations []string `json:"relations"`
	// NonContiguous selects the Section 7 candidate tables.
	NonContiguous bool `json:"non_contiguous,omitempty"`
	// KeepSelfPairs keeps (o, o) pairs in self-joins.
	KeepSelfPairs bool `json:"keep_self_pairs,omitempty"`
	// Limit, when positive, caps the number of streamed pairs; the
	// traversal stops as soon as the limit is reached.
	Limit int `json:"limit,omitempty"`
	// TimeoutMS, when positive, bounds the request's processing time.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// JoinWireStats is the trailing cost summary of a /v1/join stream.
type JoinWireStats struct {
	Pairs        int    `json:"pairs"`
	NodeAccesses uint64 `json:"node_accesses"`
}

// JoinLine is one NDJSON line of a /v1/join response. Pair lines carry
// both OIDs and MBRs; the final line carries Stats (or Error when the
// join failed mid-stream).
type JoinLine struct {
	LeftOID   *uint64        `json:"left_oid,omitempty"`
	RightOID  *uint64        `json:"right_oid,omitempty"`
	LeftRect  *[4]float64    `json:"left_rect,omitempty"`
	RightRect *[4]float64    `json:"right_rect,omitempty"`
	Stats     *JoinWireStats `json:"stats,omitempty"`
	Error     string         `json:"error,omitempty"`
}

// UpdateRequest is the body of POST /v1/insert and /v1/delete.
type UpdateRequest struct {
	Index string    `json:"index,omitempty"`
	OID   uint64    `json:"oid"`
	Rect  []float64 `json:"rect"`
}

// UpdateResponse acknowledges a mutation.
type UpdateResponse struct {
	OK      bool `json:"ok"`
	Objects int  `json:"objects"`
}

// BulkLine is one NDJSON line of a POST /v1/bulk request body: one
// rectangle to store. The target index is selected by the ?index=
// query parameter, not per line.
type BulkLine struct {
	OID  uint64    `json:"oid"`
	Rect []float64 `json:"rect"`
}

// BulkResponse acknowledges a bulk load: the whole batch is applied
// atomically and (on a durable index) logged as one WAL run before
// the response is written.
type BulkResponse struct {
	OK       bool  `json:"ok"`
	Inserted int   `json:"inserted"`
	Objects  int   `json:"objects"`
	TookMS   int64 `json:"took_ms"`
}

// WatchRequest is the body of POST /v1/watch — the same region +
// relation-set shape as /v1/query, registered as a continuous query.
type WatchRequest struct {
	// Index names the target index; empty selects the default.
	Index string `json:"index,omitempty"`
	// Relations is the disjunctive relation set, with the same aliases
	// as /v1/query.
	Relations []string `json:"relations"`
	// Ref is the reference MBR the subscription watches.
	Ref []float64 `json:"ref"`
	// Buffer, when positive, sizes the per-subscription event buffer; a
	// subscriber that falls this many events behind is terminated with
	// a lag End line rather than stalling the notifier.
	Buffer int `json:"buffer,omitempty"`
	// TimeoutMS, when positive, closes the stream after this long. The
	// server's default/maximum request deadlines do not apply to watch
	// streams.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// WatchInfo is the opening line of a /v1/watch stream: the
// subscription's identity and the commit generation it starts at
// (events report strictly greater generations).
type WatchInfo struct {
	ID         uint64 `json:"id"`
	Index      string `json:"index"`
	Generation uint64 `json:"generation"`
}

// WatchLine is one NDJSON line of a /v1/watch stream. The first line
// carries Watch; event lines carry Event ("enter", "exit", "change")
// with OID/Rect/Gen and the old/new MBR-level relation where defined;
// the terminal line carries End (e.g. "drain") when the server closes
// the subscription.
type WatchLine struct {
	Watch *WatchInfo  `json:"watch,omitempty"`
	Event string      `json:"event,omitempty"`
	OID   *uint64     `json:"oid,omitempty"`
	Rect  *[4]float64 `json:"rect,omitempty"`
	Old   string      `json:"old,omitempty"`
	New   string      `json:"new,omitempty"`
	Gen   *uint64     `json:"generation,omitempty"`
	End   string      `json:"end,omitempty"`
	Error string      `json:"error,omitempty"`
}

// KNNNeighbour is one nearest-neighbour answer.
type KNNNeighbour struct {
	OID  uint64     `json:"oid"`
	Rect [4]float64 `json:"rect"`
	Dist float64    `json:"dist"`
}

// KNNResponse is the body of GET /v1/knn.
type KNNResponse struct {
	Neighbours   []KNNNeighbour `json:"neighbours"`
	NodeAccesses uint64         `json:"node_accesses"`
}

// IndexInfo describes one served index in GET /v1/indexes.
type IndexInfo struct {
	Name       string      `json:"name"`
	Kind       string      `json:"kind"`
	Objects    int         `json:"objects"`
	Height     int         `json:"height"`
	Healthy    bool        `json:"healthy"`
	Shards     int         `json:"shards,omitempty"`
	Durable    bool        `json:"durable,omitempty"`
	Backend    string      `json:"backend,omitempty"`
	FailReason string      `json:"fail_reason,omitempty"`
	Bounds     *[4]float64 `json:"bounds,omitempty"`
}

// HealthResponse is the body of GET /healthz (process liveness).
type HealthResponse struct {
	Status string `json:"status"`
}

// IndexHealth is one index's entry in the /readyz report. The
// replication fields are present only on a follower.
type IndexHealth struct {
	Index   string `json:"index"`
	Healthy bool   `json:"healthy"`
	Reason  string `json:"reason,omitempty"`
	// Connected reports a live replication stream to the primary.
	Connected bool `json:"connected,omitempty"`
	// LagRecords is how many records this replica is behind the primary
	// (a lower bound across generation rotations).
	LagRecords uint64 `json:"lag_records,omitempty"`
	// LagSeconds is the time since the primary was last heard from;
	// negative when it has never been reached.
	LagSeconds float64 `json:"lag_seconds,omitempty"`
}

// ReadyResponse is the body of GET /readyz: ready only when every
// registered index is healthy — and, on a follower, bootstrapped and
// within the configured replication lag.
type ReadyResponse struct {
	Ready   bool          `json:"ready"`
	Role    string        `json:"role,omitempty"` // "primary", "follower", or "promoted"
	Indexes []IndexHealth `json:"indexes"`
}

// PromoteResponse acknowledges POST /v1/promote; Primary is the node
// this server replicated from until now.
type PromoteResponse struct {
	Promoted bool   `json:"promoted"`
	Primary  string `json:"primary,omitempty"`
}

// ErrorResponse is the body of non-streaming error replies. Primary is
// set on a follower's 403 mutation rejections: the node that does
// accept writes.
type ErrorResponse struct {
	Error   string `json:"error"`
	Primary string `json:"primary,omitempty"`
}

// ParseRelationSet resolves relation names (plus the "in" and
// "not_disjoint"/"window" aliases) into a disjunctive set.
func ParseRelationSet(names []string) (topo.Set, error) {
	var set topo.Set
	for _, name := range names {
		switch strings.ToLower(strings.TrimSpace(name)) {
		case "in":
			set = set.Union(topo.In)
		case "not_disjoint", "notdisjoint", "window":
			set = set.Union(topo.NotDisjoint)
		default:
			r, err := topo.ParseRelation(strings.ToLower(strings.TrimSpace(name)))
			if err != nil {
				return 0, err
			}
			set = set.Add(r)
		}
	}
	if set.IsEmpty() {
		return 0, fmt.Errorf("server: empty relation set")
	}
	return set, nil
}

// RectFromWire validates a [minx,miny,maxx,maxy] quadruple.
func RectFromWire(vals []float64) (geom.Rect, error) {
	if len(vals) != 4 {
		return geom.Rect{}, fmt.Errorf("server: rect needs 4 coordinates, got %d", len(vals))
	}
	r := geom.R(vals[0], vals[1], vals[2], vals[3])
	if !r.Valid() {
		return geom.Rect{}, fmt.Errorf("server: degenerate rect %v", r)
	}
	return r, nil
}

// RectToWire flattens a Rect for the wire.
func RectToWire(r geom.Rect) [4]float64 {
	return [4]float64{r.Min.X, r.Min.Y, r.Max.X, r.Max.Y}
}

// StatsToWire converts engine statistics to the wire shape.
func StatsToWire(s query.Stats) WireStats {
	return WireStats{NodeAccesses: s.NodeAccesses, Candidates: s.Candidates}
}
