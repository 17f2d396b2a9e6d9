package main

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"net/http"
	"slices"

	"mbrtopo/internal/geom"
	"mbrtopo/internal/index"
	"mbrtopo/internal/mbr"
	"mbrtopo/internal/query"
	"mbrtopo/internal/server"
	"mbrtopo/internal/topo"
)

// verifyCount is how many requests from the head of client 0's stream
// are checked against the oracle before the clock starts.
const verifyCount = 200

// oracleQuery is the brute-force answer to a query or conjunction: the
// ids of every stored MBR whose configuration against the reference is
// in the relation set's Table-1 candidates, sorted.
func oracleQuery(items []index.Item, rq *request) []uint64 {
	c1 := mbr.CandidatesSet(rq.rels)
	var c2 mbr.ConfigSet
	if rq.kind == kConj {
		c2 = mbr.CandidatesSet(rq.rels2)
	}
	var out []uint64
	for _, it := range items {
		if !c1.Has(mbr.ConfigOf(it.Rect, rq.ref)) {
			continue
		}
		if rq.kind == kConj && !c2.Has(mbr.ConfigOf(it.Rect, rq.ref2)) {
			continue
		}
		out = append(out, it.OID)
	}
	slices.Sort(out)
	return out
}

// oracleKNN is the brute-force k-NN: sorted by distance, ties by id.
func oracleKNN(items []index.Item, pt geom.Point, k int) []uint64 {
	type cand struct {
		d   float64
		oid uint64
	}
	cs := make([]cand, len(items))
	for i, it := range items {
		cs[i] = cand{it.Rect.DistToPoint(pt), it.OID}
	}
	slices.SortFunc(cs, func(a, b cand) int {
		return cmp.Or(cmp.Compare(a.d, b.d), cmp.Compare(a.oid, b.oid))
	})
	out := make([]uint64, min(k, len(cs)))
	for i := range out {
		out[i] = cs[i].oid
	}
	return out
}

// joinOracle counts pairs with an in-process join over the same two
// datasets, packed the way topod -bulk packs them.
type joinOracle struct{ left, right index.Index }

func newJoinOracle(items, items2 []index.Item) (*joinOracle, error) {
	left, err := index.NewPacked(index.KindRStar, index.PaperPageSize, items)
	if err != nil {
		return nil, err
	}
	right, err := index.NewPacked(index.KindRStar, index.PaperPageSize, items2)
	if err != nil {
		return nil, err
	}
	return &joinOracle{left, right}, nil
}

func (o *joinOracle) pairs(rels topo.Set) (int, error) {
	res, err := query.JoinTopological(o.left, o.right, rels, query.JoinOptions{})
	return len(res.Pairs), err
}

// answerOIDs parses every line of a query stream: the matched ids
// (sorted) and the trailer's node accesses.
func answerOIDs(body []byte) ([]uint64, uint64, error) {
	var oids []uint64
	var accesses uint64
	sawStats := false
	for _, line := range bytes.Split(bytes.TrimSuffix(body, []byte("\n")), []byte("\n")) {
		var ql server.QueryLine
		if err := json.Unmarshal(line, &ql); err != nil {
			return nil, 0, fmt.Errorf("bad NDJSON line %q: %w", line, err)
		}
		switch {
		case ql.Error != "":
			return nil, 0, fmt.Errorf("error line: %s", ql.Error)
		case ql.Stats != nil:
			accesses, sawStats = ql.Stats.NodeAccesses, true
		case ql.OID != nil:
			oids = append(oids, *ql.OID)
		}
	}
	if !sawStats {
		return nil, 0, fmt.Errorf("stream ended without a stats line")
	}
	slices.Sort(oids)
	return oids, accesses, nil
}

// verifyResult is the outcome of the pre-clock correctness pass.
type verifyResult struct {
	checked, failed int
	// nodeAccesses and joinNodeAccesses sum the trailers of the checked
	// requests. The prefix and the tree are fixed by the seed, so the
	// per-request means repeat bit for bit.
	nodeAccesses, joinNodeAccesses uint64
	queries, joins                 int
	firstError                     string
}

func (v *verifyResult) fail(format string, args ...any) {
	v.failed++
	if v.firstError == "" {
		v.firstError = fmt.Sprintf(format, args...)
	}
}

// verifyPrefix replays the head of client 0's read stream against the
// running topod with full parsing and compares every answer with the
// oracle.
func verifyPrefix(client *http.Client, base string, p *plan) (verifyResult, error) {
	var v verifyResult
	var buf bytes.Buffer
	var joins *joinOracle
	if p.items2 != nil {
		var err error
		if joins, err = newJoinOracle(p.items, p.items2); err != nil {
			return v, err
		}
	}
	stream := p.streams[0]
	for i := 0; i < min(verifyCount, len(stream)); i++ {
		rq := &stream[i]
		s, tr, err := exchange(client, base, rq, &buf)
		if err != nil {
			return v, fmt.Errorf("verify request %d: %w", i, err)
		}
		v.checked++
		if !s.ok {
			v.fail("%s request %d: not answered 200 with a trailer: %.200s", kindNames[rq.kind], i, buf.String())
			continue
		}
		switch rq.kind {
		case kQuery, kConj:
			got, accesses, err := answerOIDs(buf.Bytes())
			if err != nil {
				v.fail("%s request %d: %v", kindNames[rq.kind], i, err)
				continue
			}
			v.nodeAccesses += accesses
			v.queries++
			if want := oracleQuery(p.items, rq); !slices.Equal(got, want) {
				v.fail("%s request %d (%s vs %v): %d ids, oracle has %d", kindNames[rq.kind], i, rq.rels, rq.ref, len(got), len(want))
			}
		case kKNN:
			var resp server.KNNResponse
			if err := json.Unmarshal(buf.Bytes(), &resp); err != nil {
				v.fail("knn request %d: %v", i, err)
				continue
			}
			v.nodeAccesses += resp.NodeAccesses
			v.queries++
			got := make([]uint64, len(resp.Neighbours))
			for j, nb := range resp.Neighbours {
				got[j] = nb.OID
			}
			if want := oracleKNN(p.items, rq.pt, rq.k); !slices.Equal(got, want) {
				v.fail("knn request %d at %v: got %v, oracle %v", i, rq.pt, got, want)
			}
		case kJoin:
			v.joinNodeAccesses += tr.Stats.NodeAccesses
			v.joins++
			want, err := joins.pairs(rq.rels)
			if err != nil {
				return v, err
			}
			if tr.Stats.Pairs != want || s.lines != want {
				v.fail("join %s: trailer says %d pairs over %d lines, in-process join has %d", rq.rels, tr.Stats.Pairs, s.lines, want)
			}
		}
	}
	return v, nil
}

// liveOIDs streams every stored object from topod with one
// world-covering window query and returns the ids, sorted.
func liveOIDs(client *http.Client, base string) ([]uint64, error) {
	rq := queryRequest(topo.NotDisjoint, geom.R(-1, -1, 1001, 1001))
	var buf bytes.Buffer
	s, _, err := exchange(client, base, &rq, &buf)
	if err != nil {
		return nil, err
	}
	if !s.ok {
		return nil, fmt.Errorf("full scan not answered 200 with a trailer: %.200s", buf.String())
	}
	oids, _, err := answerOIDs(buf.Bytes())
	return oids, err
}
