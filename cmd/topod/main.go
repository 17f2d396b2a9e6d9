// Command topod serves spatial indexes over HTTP: the paper's 4-step
// topological retrieval as a wire API with NDJSON streaming, admission
// control, and Prometheus metrics (package server).
//
// Serve a data file (CSV, or NDJSON in the /v1/bulk line format):
//
//	topod -addr :8080 -data data.csv -tree rstar
//	curl -s localhost:8080/v1/indexes
//	curl -s -d '{"relations":["overlap"],"ref":[10,10,40,30]}' localhost:8080/v1/query
//	curl -s 'localhost:8080/v1/knn?k=5&x=100&y=200'
//	curl -s localhost:8080/metrics
//
// With -bulk the startup load is Sort-Tile-Recursive packed instead of
// inserted one by one — the way to serve a large data file quickly:
//
//	topod -data data.csv -bulk
//
// Without -data, -gen N serves a synthetic dataset of N rectangles
// (deterministic in -seed). SIGINT/SIGTERM drain in-flight requests
// before exiting.
//
// A second index (-data2 FILE or -gen2 N, named by -name2) turns the
// process into a spatial-join service:
//
//	topod -gen 20000 -gen2 20000 -bulk
//	curl -s -d '{"left":"main","right":"second","relations":["overlap"]}' localhost:8080/v1/join
//
// With -data-dir the index is durable: its state lives in the
// directory as two files — name.flat, a checksummed MBRFLAT1 image of
// the last checkpoint, and name.wal.<gen>, the mutations since
// (-fsync always|never). It is checkpointed as the log grows
// (-checkpoint-every) and recovered on the next boot — a kill -9 loses
// no acknowledged mutation under -fsync always. A clean SIGTERM
// checkpoints so the restart replays nothing:
//
//	topod -gen 10000 -data-dir /var/lib/topod -fsync always
//
// Every boot from an image adopts it as the tree — the checkpointed
// tree node for node, one slot-table copy. When the WAL is quiet that
// is all (backend=flat); with records in the WAL it replays them and
// checkpoints before serving (backend=recovered). A fresh index prints
// the plain build line. An image that fails its checksums is never
// guessed around: the index answers 503.
//
// Read replicas: -follow streams the primary's checkpoint image plus a
// live WAL tail over /v1/replicate into a local data directory. The
// replica serves all read endpoints, 403s mutations (naming the
// primary), and gates /readyz on replication lag (-max-lag,
// -max-lag-records). POST /v1/promote or SIGUSR1 flips it to a
// writable primary after the old one dies:
//
//	topod -addr :8081 -follow http://localhost:8080 -data-dir /var/lib/topod-replica
//	curl -s -X POST localhost:8081/v1/promote
//
// Continuous queries: POST /v1/watch (same body shape as /v1/query)
// streams enter/exit/change events as the index mutates, admitted from
// a dedicated -maxwatch slot pool so subscribers never starve queries.
// SIGTERM ends every stream with a terminal drain line before the HTTP
// drain begins:
//
//	topoquery -watch http://localhost:8080 -rel not_disjoint -ref 10,10,40,30
//
// Tile sharding: -shards N partitions the index into N STR tiles, one
// index instance per tile behind a scatter-gather router. Queries,
// kNN, and joins fan out to only the tiles whose bounds can satisfy
// the relation set; with -data-dir every tile keeps its own image +
// WAL and recovers independently (an existing on-disk tile layout wins
// over the flag):
//
//	topod -gen 100000 -bulk -shards 4 -data-dir /var/lib/topod
//
// Conjunctions and caching: /v1/query accepts a second conjunction
// term (relations2/ref2); one descent prunes by both terms, unless the
// relation composition table already proves the answer empty
// ("explain":true in the body shows which in the stats line).
// -cache-size N keeps an LRU of query answers keyed on
// each index's mutation generation, so repeated queries on a quiet
// index are replayed without touching the tree:
//
//	topod -gen 100000 -bulk -cache-size 1024
//
// To measure the service end to end, run the bench/ harness against
// it: bash bench/run.sh (see bench/README.md).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"mbrtopo/internal/index"
	"mbrtopo/internal/server"
	"mbrtopo/internal/wal"
	"mbrtopo/internal/workload"
)

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		dataPath    = flag.String("data", "", "data file: CSV (oid,minx,miny,maxx,maxy) or .ndjson (/v1/bulk lines)")
		bulk        = flag.Bool("bulk", false, "STR bulk-load the startup data instead of inserting one by one")
		gen         = flag.Int("gen", 0, "serve a synthetic dataset of this many rectangles (0 with no -data: start empty, fill via /v1/bulk)")
		className   = flag.String("class", "medium", "size class for -gen (small, medium, large)")
		seed        = flag.Int64("seed", 1995, "random seed for -gen")
		tree        = flag.String("tree", "rtree", "access method: rtree, rplus, rstar")
		name        = flag.String("name", "main", "index name on the wire")
		pageSize    = flag.Int("pagesize", index.PaperPageSize, "page size in bytes")
		maxInFlight = flag.Int("maxinflight", 64, "admission-control bound on concurrent requests")

		data2   = flag.String("data2", "", "optional second data file, served as another index (join it with the first via /v1/join)")
		gen2    = flag.Int("gen2", 0, "serve a second synthetic dataset of this many rectangles (seeded with -seed+1)")
		name2   = flag.String("name2", "second", "second index name on the wire")
		tree2   = flag.String("tree2", "", "second index access method (default: same as -tree)")
		timeout = flag.Duration("timeout", 30*time.Second, "default per-request deadline (0 = none)")
		drain   = flag.Duration("drain", 10*time.Second, "graceful shutdown budget on SIGTERM")

		dataDir   = flag.String("data-dir", "", "durable state directory: checkpoint image + WAL, recovered on boot")
		fsync     = flag.String("fsync", "always", "WAL fsync policy with -data-dir: always (fsync each group commit before acknowledging it) or never (leave flushing to the OS)")
		ckptEvery = flag.Int("checkpoint-every", server.DefaultCheckpointEvery, "checkpoint after this many logged mutations")

		follow        = flag.String("follow", "", "run as a read replica of this primary base URL (requires -data-dir); POST /v1/promote or SIGUSR1 promotes")
		maxLag        = flag.Duration("max-lag", 5*time.Second, "follower readiness gate: 503 on /readyz after this long without contact from the primary")
		maxLagRecords = flag.Uint64("max-lag-records", 10000, "follower readiness gate: 503 on /readyz while more than this many records behind")

		maxWatch  = flag.Int("maxwatch", 256, "bound on concurrently open /v1/watch streams (separate from -maxinflight)")
		shards    = flag.Int("shards", 1, "STR-partition the index into this many tiles with scatter-gather routing (an existing on-disk layout wins over the flag)")
		cacheSize = flag.Int("cache-size", 256, "entries in the generation-keyed /v1/query result cache (0 = disabled)")
	)
	flag.Parse()

	cls, err := parseClass(*className)
	if err != nil {
		fatal(err)
	}
	kind, err := parseKind(*tree)
	if err != nil {
		fatal(err)
	}

	spec := server.IndexSpec{
		Name:     *name,
		Kind:     kind,
		PageSize: *pageSize,
		Bulk:     *bulk,
		Shards:   *shards,
	}
	if *follow != "" && *dataDir == "" {
		fatal(fmt.Errorf("-follow requires -data-dir (the replica keeps its own checkpoint image + WAL)"))
	}
	policy, err := wal.ParseSyncPolicy(*fsync)
	if err != nil {
		fatal(err)
	}
	if *dataDir != "" {
		spec.Dir = *dataDir
		spec.Fsync = policy
		spec.CheckpointEvery = *ckptEvery
		spec.Follower = *follow != ""
	}

	// With existing durable state the items are ignored: the index
	// recovers from its checkpoint image + WAL instead of rebuilding.
	items, err := loadItems(*dataPath, *gen, cls, *seed)
	if err != nil {
		fatal(err)
	}
	srv := server.New(server.Config{
		MaxInFlight:    *maxInFlight,
		DefaultTimeout: *timeout,
		MaxWatch:       *maxWatch,
		CacheSize:      *cacheSize,
	})
	buildStart := time.Now()
	inst, err := srv.AddIndex(spec, items)
	if err != nil {
		fatal(err)
	}
	buildTime := time.Since(buildStart)
	switch {
	case *follow != "":
		if err := srv.Follow(server.FollowConfig{
			Primary:       *follow,
			MaxLagRecords: *maxLagRecords,
			MaxLagWall:    *maxLag,
		}); err != nil {
			fatal(err)
		}
		fmt.Printf("topod: backend=follower index %q replicating from %s (max lag %s / %d records; POST /v1/promote or SIGUSR1 to promote)\n",
			inst.Name, *follow, *maxLag, *maxLagRecords)
	case !inst.Healthy():
		fmt.Printf("topod: index %q UNHEALTHY (%s); serving 503 on its routes\n",
			inst.Name, inst.FailReason())
	case inst.Sharded() > 0:
		verb := "serving"
		if inst.Recovered {
			verb = "recovered"
		}
		fmt.Printf("topod: backend=sharded %s %d rectangles across %d STR tiles in %s %q in %s (replayed %d WAL records)\n",
			verb, inst.ReadIndex().Len(), inst.Sharded(), inst.Kind, inst.Name,
			buildTime.Round(time.Millisecond), inst.Replayed)
	case inst.Backend() == "flat":
		fmt.Printf("topod: backend=flat serving %d rectangles in %s %q from %s in %s (the checkpoint image adopted as the tree, nothing replayed)\n",
			inst.ReadIndex().Len(), inst.Kind, inst.Name, *dataDir, buildTime.Round(time.Millisecond))
	case inst.Recovered:
		fmt.Printf("topod: backend=recovered %d rectangles in %s %q from %s (replayed %d WAL records)\n",
			inst.ReadIndex().Len(), inst.Kind, inst.Name, *dataDir, inst.Replayed)
	default:
		build := "loaded"
		if *bulk {
			build = "bulk-loaded"
		}
		fmt.Printf("topod: %s %d rectangles in %s %q in %s (height %d)\n",
			build, inst.ReadIndex().Len(), inst.Kind, inst.Name, buildTime.Round(time.Millisecond), inst.ReadIndex().Height())
	}

	// A second, non-durable index makes the process a join service:
	// POST /v1/join with left/right set to the two names.
	if *data2 != "" || *gen2 > 0 {
		kind2 := kind
		if *tree2 != "" {
			if kind2, err = parseKind(*tree2); err != nil {
				fatal(err)
			}
		}
		items2, err := loadItems(*data2, *gen2, cls, *seed+1)
		if err != nil {
			fatal(err)
		}
		inst2, err := srv.AddIndex(server.IndexSpec{
			Name:     *name2,
			Kind:     kind2,
			PageSize: *pageSize,
			Bulk:     *bulk,
		}, items2)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("topod: loaded %d rectangles in %s %q (height %d)\n",
			inst2.ReadIndex().Len(), inst2.Kind, inst2.Name, inst2.ReadIndex().Height())
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("topod: listening on %s\n", ln.Addr())

	// SIGUSR1 promotes a follower to primary without an HTTP round
	// trip — the orchestrator's failover path when the old primary is
	// already dead.
	if *follow != "" {
		usr1 := make(chan os.Signal, 1)
		signal.Notify(usr1, syscall.SIGUSR1)
		go func() {
			for range usr1 {
				if err := srv.Promote(); err != nil {
					fmt.Fprintln(os.Stderr, "topod: promote:", err)
					continue
				}
				fmt.Println("topod: promoted to primary; accepting writes")
			}
		}()
	}

	httpSrv := &http.Server{Handler: srv.Handler()}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()
	select {
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fatal(err)
		}
	case <-ctx.Done():
		stop()
		fmt.Println("topod: draining…")
		// Watch streams never go idle on their own: flush pending
		// notifications and end each with a terminal drain line first,
		// or Shutdown would hang on them until the budget expired.
		srv.DrainWatchers()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := httpSrv.Shutdown(shutdownCtx); err != nil {
			fatal(fmt.Errorf("drain: %w", err))
		}
		// Checkpoint durable indexes so the next boot replays nothing.
		if err := srv.Close(); err != nil {
			fatal(fmt.Errorf("closing indexes: %w", err))
		}
		fmt.Println("topod: bye")
	}
}

// loadItems reads the data file (CSV, or NDJSON by extension), or
// generates a synthetic dataset.
func loadItems(path string, gen int, cls workload.SizeClass, seed int64) ([]index.Item, error) {
	if path != "" {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		if strings.HasSuffix(path, ".ndjson") {
			return workload.ReadItemsNDJSON(f)
		}
		return workload.ReadItemsCSV(f)
	}
	if gen < 0 {
		return nil, fmt.Errorf("-gen must be non-negative")
	}
	if gen == 0 {
		// Start empty: the dataset arrives later through POST /v1/bulk
		// (or one insert at a time).
		return nil, nil
	}
	return workload.NewDataset(cls, gen, 0, seed).Items, nil
}

func parseClass(s string) (workload.SizeClass, error) {
	switch strings.ToLower(s) {
	case "small":
		return workload.Small, nil
	case "medium":
		return workload.Medium, nil
	case "large":
		return workload.Large, nil
	}
	return 0, fmt.Errorf("unknown size class %q", s)
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

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "topod:", err)
	os.Exit(1)
}
