// Command topoquery loads a rectangle data file (CSV, as produced by
// datagen) into an access method and answers topological queries
// against a reference MBR, printing the qualifying object ids and the
// paper's cost metrics.
//
// Usage:
//
//	topoquery -data data.csv -tree rstar -rel covers -ref 10,10,40,30
//	topoquery -data data.csv -rel in -ref 0,0,500,500      # inside ∨ covered_by
//	topoquery -data data.csv -rel meet -ref 10,10,40,30 -noncrisp
//	topoquery -data data.csv -queries queries.csv -rel overlap   # batch mode
//	topoquery -data left.csv -join right.csv -rel meet,overlap   # spatial join
//	topoquery -data data.csv -rel overlap -ref 10,10,40,30 -frames 64   # LRU buffer pool
//	topoquery -watch http://localhost:8080 -rel not_disjoint -ref 10,10,40,30   # live events
//	topoquery -data data.csv -rel overlap -ref 10,10,40,30 \
//	          -rel2 inside -ref2 0,0,80,80 -explain   # conjunction + what ran
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"mbrtopo/internal/direction"
	"mbrtopo/internal/geom"
	"mbrtopo/internal/index"
	"mbrtopo/internal/pagefile"
	"mbrtopo/internal/query"
	"mbrtopo/internal/retry"
	"mbrtopo/internal/server"
	"mbrtopo/internal/topo"
	"mbrtopo/internal/workload"
)

func main() {
	var (
		dataPath  = flag.String("data", "", "data CSV (oid,minx,miny,maxx,maxy); required")
		queryPath = flag.String("queries", "", "optional search-file CSV for batch mode")
		tree      = flag.String("tree", "rtree", "access method: rtree, rplus, rstar")
		relName   = flag.String("rel", "overlap", "relation (disjoint, meet, equal, overlap, contains, inside, covers, covered_by, in, not_disjoint)")
		refSpec   = flag.String("ref", "", "reference MBR as minx,miny,maxx,maxy (single-query mode)")
		pageSize  = flag.Int("pagesize", index.PaperPageSize, "page size in bytes")
		frames    = flag.Int("frames", 0, "buffer-pool frames between tree and page file (0 = unbuffered)")
		nonCrisp  = flag.Bool("noncrisp", false, "tolerate 2-degree MBR imprecision (Table 5 retrieval)")
		nonContig = flag.Bool("noncontiguous", false, "objects may be multi-part (Section 7 tables)")
		joinPath  = flag.String("join", "", "second data CSV: join -data (left) with this file (right) on -rel instead of running window queries")
		knnSpec   = flag.String("knn", "", "k,x,y — report the k stored rectangles nearest to (x,y)")
		dirName   = flag.String("dir", "", "direction relation (north, southwest, samelevel, strict_east, …) instead of -rel")
		maxPrint  = flag.Int("maxprint", 20, "print at most this many matching oids")
		watchURL  = flag.String("watch", "", "topod base URL: subscribe to /v1/watch for -rel/-ref and stream events until ctrl-C or server drain (no -data needed)")
		indexName = flag.String("index", "", "server index name for -watch (empty = the server default)")
		buffer    = flag.Int("buffer", 0, "server-side event buffer for -watch (0 = server default)")
		rel2Name  = flag.String("rel2", "", "second relation set: AND it (against -ref2) with -rel/-ref as a two-term conjunction")
		ref2Spec  = flag.String("ref2", "", "second reference MBR for -rel2, as minx,miny,maxx,maxy")
		explain   = flag.Bool("explain", false, "print what ran (single descent, two-term conjunction, or Table 4 short circuit)")
	)
	flag.Parse()

	// Watch mode is a pure network client: no data file, no local tree.
	if *watchURL != "" {
		if err := runWatch(*watchURL, *indexName, *relName, *refSpec, *buffer); err != nil {
			fatal(err)
		}
		return
	}

	if *dataPath == "" {
		fatal(fmt.Errorf("-data is required"))
	}
	rels, err := parseRelSet(*relName)
	if err != nil {
		fatal(err)
	}
	kind, err := parseKind(*tree)
	if err != nil {
		fatal(err)
	}
	items, err := readItems(*dataPath)
	if err != nil {
		fatal(err)
	}
	// Explicit page files: topoquery reports the paper's page reads.
	var file pagefile.File = pagefile.NewMemFile(*pageSize)
	var pool *pagefile.BufferPool
	if *frames > 0 {
		pool = pagefile.NewBufferPool(file, *frames)
		file = pool
	}
	idx, err := index.NewOnFile(kind, file)
	if err != nil {
		fatal(err)
	}
	if err := index.Load(idx, items); err != nil {
		fatal(err)
	}
	fmt.Printf("loaded %d rectangles into %s (height %d)\n", idx.Len(), idx.Name(), idx.Height())
	if pool != nil {
		// Report query-time caching only, not the build's IO.
		pool.ResetStats()
		defer reportPool(pool, *frames)
	}

	// Join mode: synchronized-traversal join of the two layers, run
	// serially — the ground truth the service smoke test compares
	// /v1/join pair counts against.
	if *joinPath != "" {
		rItems, err := readItems(*joinPath)
		if err != nil {
			fatal(err)
		}
		rIdx, err := index.NewOnFile(kind, pagefile.NewMemFile(*pageSize))
		if err != nil {
			fatal(err)
		}
		if err := index.Load(rIdx, rItems); err != nil {
			fatal(err)
		}
		fmt.Printf("loaded %d rectangles into right %s (height %d)\n", rIdx.Len(), rIdx.Name(), rIdx.Height())
		res, err := query.JoinTopological(idx, rIdx, rels, query.JoinOptions{
			Workers: 1, NonContiguous: *nonContig,
		})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("join %s: %d pairs, %d node accesses\n", *relName, len(res.Pairs), res.Stats.NodeAccesses)
		for i, p := range res.Pairs {
			if i >= *maxPrint {
				fmt.Printf("  … %d more\n", len(res.Pairs)-i)
				break
			}
			fmt.Printf("  (%d, %d)\n", p.LeftOID, p.RightOID)
		}
		return
	}

	// kNN mode.
	if *knnSpec != "" {
		parts := strings.Split(*knnSpec, ",")
		if len(parts) != 3 {
			fatal(fmt.Errorf("-knn needs k,x,y"))
		}
		k, err := strconv.Atoi(strings.TrimSpace(parts[0]))
		if err != nil {
			fatal(err)
		}
		x, err := strconv.ParseFloat(strings.TrimSpace(parts[1]), 64)
		if err != nil {
			fatal(err)
		}
		y, err := strconv.ParseFloat(strings.TrimSpace(parts[2]), 64)
		if err != nil {
			fatal(err)
		}
		nn, ts, err := idx.NearestCtx(context.Background(), geom.Point{X: x, Y: y}, k)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%d nearest to (%g, %g) — %d page reads:\n", len(nn), x, y, ts.NodeAccesses)
		for i, nb := range nn {
			fmt.Printf("  %2d. oid %-6d dist %-8.3f %v\n", i+1, nb.OID, nb.Dist, nb.Rect)
		}
		return
	}

	proc := &query.Processor{Idx: idx, NonCrisp: *nonCrisp, NonContiguous: *nonContig}

	// Conjunction mode: two terms ANDed in one descent — or answered
	// empty straight from the composition table.
	if *rel2Name != "" || *ref2Spec != "" {
		if *rel2Name == "" || *ref2Spec == "" {
			fatal(fmt.Errorf("conjunction needs both -rel2 and -ref2"))
		}
		rels2, err := parseRelSet(*rel2Name)
		if err != nil {
			fatal(err)
		}
		ref, err := parseRect(*refSpec)
		if err != nil {
			fatal(err)
		}
		ref2, err := parseRect(*ref2Spec)
		if err != nil {
			fatal(err)
		}
		var matches []query.Match
		stats, err := proc.StreamConjunction(context.Background(), rels, ref, rels2, ref2, 0,
			func(m query.Match) bool { matches = append(matches, m); return true })
		if err != nil {
			fatal(err)
		}
		fmt.Printf("conjunction (%s %v) AND (%s %v): %d candidates, %d node accesses\n",
			*relName, ref, *rel2Name, ref2, len(matches), stats.NodeAccesses)
		if *explain {
			fmt.Printf("plan: %s\n", stats.Explain)
		}
		for i, m := range matches {
			if i >= *maxPrint {
				fmt.Printf("  … %d more\n", len(matches)-i)
				break
			}
			fmt.Printf("  oid %d  %v\n", m.OID, m.Rect)
		}
		return
	}

	// Direction mode.
	if *dirName != "" {
		rel, err := parseDirection(*dirName)
		if err != nil {
			fatal(err)
		}
		ref, err := parseRect(*refSpec)
		if err != nil {
			fatal(err)
		}
		res, err := proc.QueryDirection(rel, ref)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("direction %s of %v: %d objects, %d node accesses\n",
			rel, ref, len(res.Matches), res.Stats.NodeAccesses)
		for i, m := range res.Matches {
			if i >= *maxPrint {
				fmt.Printf("  … %d more\n", len(res.Matches)-i)
				break
			}
			fmt.Printf("  oid %d  %v\n", m.OID, m.Rect)
		}
		return
	}

	var refs []geom.Rect
	switch {
	case *refSpec != "":
		r, err := parseRect(*refSpec)
		if err != nil {
			fatal(err)
		}
		refs = []geom.Rect{r}
	case *queryPath != "":
		f, err := os.Open(*queryPath)
		if err != nil {
			fatal(err)
		}
		refs, err = workload.ReadRectsCSV(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
	default:
		fatal(fmt.Errorf("provide -ref or -queries"))
	}

	var totalAcc uint64
	var totalHits int
	for i, ref := range refs {
		res, err := proc.QuerySetMBR(rels, ref)
		if err != nil {
			fatal(err)
		}
		totalAcc += res.Stats.NodeAccesses
		totalHits += res.Stats.Candidates
		if len(refs) == 1 {
			fmt.Printf("query %v relation %s: %d candidates, %d node accesses\n",
				ref, *relName, res.Stats.Candidates, res.Stats.NodeAccesses)
			if *explain {
				fmt.Printf("plan: %s\n", res.Stats.Explain)
			}
			for j, m := range res.Matches {
				if j >= *maxPrint {
					fmt.Printf("  … %d more\n", len(res.Matches)-j)
					break
				}
				fmt.Printf("  oid %d  %v\n", m.OID, m.Rect)
			}
		} else if i < 5 {
			fmt.Printf("query %3d: %5d candidates, %4d accesses\n",
				i, res.Stats.Candidates, res.Stats.NodeAccesses)
		}
	}
	if len(refs) > 1 {
		fmt.Printf("batch of %d queries: mean %.1f candidates, mean %.1f node accesses (serial scan: %d pages)\n",
			len(refs),
			float64(totalHits)/float64(len(refs)),
			float64(totalAcc)/float64(len(refs)),
			index.SerialPages(idx.Len(), (*pageSize-8)/40))
	}
}

// errWatchFatal marks watch errors that reconnecting cannot fix (a
// rejected request, e.g. an unknown index or bad relation set).
var errWatchFatal = errors.New("not retryable")

// runWatch subscribes to a running topod's /v1/watch and prints the
// event stream: one line per enter/exit/change, until the user
// interrupts (ctrl-C exits cleanly) or the server ends the stream with
// a terminal drain line. A cut stream — server restart, network blip,
// failover to a promoted replica — is re-subscribed with the shared
// capped jittered backoff; events that happened during the gap are
// lost (each subscription starts at the index's current generation).
func runWatch(base, indexName, relName, refSpec string, buffer int) error {
	if refSpec == "" {
		return fmt.Errorf("-watch needs -ref")
	}
	ref, err := parseRect(refSpec)
	if err != nil {
		return err
	}
	var rels []string
	for _, name := range strings.Split(relName, ",") {
		if name = strings.TrimSpace(name); name != "" {
			rels = append(rels, name)
		}
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	wire := server.RectToWire(ref)
	body, err := json.Marshal(server.WatchRequest{
		Index:     indexName,
		Relations: rels,
		Ref:       wire[:],
		Buffer:    buffer,
	})
	if err != nil {
		return err
	}
	target := strings.TrimRight(base, "/") + "/v1/watch"
	var policy retry.Policy
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	for attempt := 0; ; attempt++ {
		progressed, err := watchOnce(ctx, target, body)
		if ctx.Err() != nil {
			fmt.Println("watch interrupted")
			return nil
		}
		if err == nil {
			return nil
		}
		if errors.Is(err, errWatchFatal) {
			return err
		}
		if progressed {
			// The subscription worked before it broke: restart the
			// backoff schedule.
			attempt = 0
		}
		d := policy.Delay(attempt, 0, rng)
		fmt.Fprintf(os.Stderr, "topoquery: %v; re-subscribing in %s\n", err, d.Round(time.Millisecond))
		if retry.Sleep(ctx, d) != nil {
			fmt.Println("watch interrupted")
			return nil
		}
	}
}

// watchOnce runs one /v1/watch subscription to its end. A nil error is
// a clean server-side end (terminal drain line); errWatchFatal wraps
// rejections a retry cannot fix; any other error is transient.
// progressed reports that the subscription was established, which
// resets the caller's backoff.
func watchOnce(ctx context.Context, target string, body []byte) (progressed bool, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, target, bytes.NewReader(body))
	if err != nil {
		return false, fmt.Errorf("watch: %w: %w", err, errWatchFatal)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return false, fmt.Errorf("watch: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		err := fmt.Errorf("watch: %s: %s", resp.Status, strings.TrimSpace(string(msg)))
		if resp.StatusCode >= 400 && resp.StatusCode < 500 && resp.StatusCode != http.StatusTooManyRequests {
			// The server understood the request and said no; asking
			// again will not change its mind. Saturation (429/503) will
			// pass, so those stay retryable.
			err = fmt.Errorf("%w: %w", err, errWatchFatal)
		}
		return false, err
	}

	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		var line server.WatchLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			return progressed, fmt.Errorf("watch: bad stream line %q: %w", sc.Text(), err)
		}
		switch {
		case line.Watch != nil:
			progressed = true
			fmt.Printf("watching index %q (subscription %d, generation %d); ctrl-C to stop\n",
				line.Watch.Index, line.Watch.ID, line.Watch.Generation)
		case line.End != "":
			fmt.Printf("watch ended by server: %s\n", line.End)
			return progressed, nil
		case line.Error != "":
			return progressed, fmt.Errorf("watch: server error: %s", line.Error)
		case line.Event != "":
			rel := line.New
			if line.Event == "exit" {
				rel = line.Old
			} else if line.Old != "" {
				rel = line.Old + " -> " + line.New
			}
			var r [4]float64
			if line.Rect != nil {
				r = *line.Rect
			}
			fmt.Printf("gen %-6d %-6s oid %-8d %-24s %v\n",
				deref(line.Gen), line.Event, deref(line.OID), rel, r)
		}
	}
	if err := sc.Err(); err != nil {
		return progressed, fmt.Errorf("watch: stream cut: %w", err)
	}
	return progressed, fmt.Errorf("watch: stream closed without a terminal line")
}

func deref(p *uint64) uint64 {
	if p == nil {
		return 0
	}
	return *p
}

func readItems(path string) ([]index.Item, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return workload.ReadItemsCSV(f)
}

// parseRelSet resolves a comma-separated disjunction of relation names
// ("meet,overlap"), with the same aliases as the wire API.
func parseRelSet(s string) (topo.Set, error) {
	var set topo.Set
	for _, name := range strings.Split(s, ",") {
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
		return 0, fmt.Errorf("empty relation set %q", s)
	}
	return set, nil
}

func parseDirection(s string) (direction.Relation, error) {
	for _, r := range direction.All() {
		if r.String() == strings.ToLower(s) {
			return r, nil
		}
	}
	return 0, fmt.Errorf("unknown direction %q", s)
}

func parseKind(s string) (index.Kind, error) {
	switch strings.ToLower(s) {
	case "rtree", "r":
		return index.KindRTree, nil
	case "rplus", "r+":
		return index.KindRPlus, nil
	case "rstar", "r*":
		return index.KindRStar, nil
	}
	return 0, fmt.Errorf("unknown tree %q", s)
}

func parseRect(s string) (geom.Rect, error) {
	parts := strings.Split(s, ",")
	if len(parts) != 4 {
		return geom.Rect{}, fmt.Errorf("ref needs 4 comma-separated coordinates, got %q", s)
	}
	vals := make([]float64, 4)
	for i, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return geom.Rect{}, fmt.Errorf("bad coordinate %q: %w", p, err)
		}
		vals[i] = v
	}
	r := geom.R(vals[0], vals[1], vals[2], vals[3])
	if !r.Valid() {
		return geom.Rect{}, fmt.Errorf("degenerate reference MBR %v", r)
	}
	return r, nil
}

// reportPool prints the buffer-pool counters next to the raw
// node-access counts the queries reported: logical accesses are the
// paper's disk accesses; hits never touched the simulated device.
func reportPool(pool *pagefile.BufferPool, frames int) {
	hits, misses := pool.HitMiss()
	total := hits + misses
	ratio := 0.0
	if total > 0 {
		ratio = 100 * float64(hits) / float64(total)
	}
	fmt.Printf("buffer pool: %d frames, %d hits / %d misses (%.1f%% hit ratio), %d physical reads\n",
		frames, hits, misses, ratio, pool.Stats().Reads)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "topoquery:", err)
	os.Exit(1)
}
