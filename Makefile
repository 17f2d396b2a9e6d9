GO ?= go

.PHONY: verify orphans pins race test paper bench-smoke fmt smoke fuzz loc pairs

# Tier-1 gate: everything must be gofmt-clean, build, vet clean, and
# pass. bench/ is a nested module that root `./...` cannot see, yet it
# imports internal/ packages: vet it too, so that deleting a symbol it
# calls fails here and not only in CI's bench-smoke job. The four
# in-repo micro-benchmarks run once so that they cannot rot.
verify: orphans pins
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "files need gofmt:"; echo "$$out"; exit 1; fi
	$(GO) build ./...
	$(GO) vet ./...
	cd bench && $(GO) vet ./...
	$(GO) test ./...
	$(GO) test -run '^$$' -bench JoinServedShape -benchtime 1x ./internal/query
	$(GO) test -run '^$$' -bench '^(BenchmarkPack|BenchmarkNearest|BenchmarkInsertDelete)$$' -benchtime 1x ./internal/index

# Dead-symbol gate: the exported funcs only tests call must be exactly
# the ones scripts/orphans.allow gives a reason for. A `-` line is a new
# orphan (delete it or add its reason); a `+` line is an entry whose
# func is gone or has found a caller (drop it).
orphans:
	@bash -c 'diff -u --label scripts/orphans.sh --label scripts/orphans.allow <(bash scripts/orphans.sh) <(cut -d" " -f1 scripts/orphans.allow)'

# Bench-pin gate: the exported funcs that only bench/ calls — what the
# orphan scan adds once bench/ stops counting as a caller — must be
# exactly the names in scripts/bench.pins, the list the next bench/
# change retires. A `-` line is a new pin (list it, or call it from the
# root module); a `+` line is a pin that is gone (drop it).
pins:
	@bash -c 'diff -u --label "scripts/orphans.sh bench" --label scripts/bench.pins <(comm -23 <(bash scripts/orphans.sh bench) <(bash scripts/orphans.sh)) <(grep -v "^#" scripts/bench.pins | cut -d" " -f1)'

# Size report: Go lines of non-test and test files, and packages, of
# the root module without bench/. Simplicity changes quote it before
# and after.
loc:
	@bash scripts/loc.sh

# Concurrency gate: readers, batched writers, and group commit must be
# race-free across every package, with exact per-query statistics.
race:
	$(GO) test -race ./...

# Fuzz gate: run each fuzzer for a bounded budget on top of its seed
# corpus under testdata/fuzz/ (also run in CI).
FUZZTIME ?= 20s
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzWALReplay -fuzztime=$(FUZZTIME) ./internal/wal
	$(GO) test -run='^$$' -fuzz=FuzzWireDecode -fuzztime=$(FUZZTIME) ./internal/server
	$(GO) test -run='^$$' -fuzz=FuzzLineEncode -fuzztime=$(FUZZTIME) ./internal/server
	$(GO) test -run='^$$' -fuzz=FuzzSim -fuzztime=$(FUZZTIME) ./internal/server
	$(GO) test -run='^$$' -fuzz=FuzzFlatDecode -fuzztime=$(FUZZTIME) ./internal/rtree
	$(GO) test -run='^$$' -fuzz=FuzzJoinOrder -fuzztime=$(FUZZTIME) ./internal/rtree
	$(GO) test -run='^$$' -fuzz=FuzzPack -fuzztime=$(FUZZTIME) ./internal/rtree
	$(GO) test -run='^$$' -fuzz=FuzzTilePrune -fuzztime=$(FUZZTIME) ./internal/shard
	$(GO) test -run='^$$' -fuzz=FuzzDomination -fuzztime=$(FUZZTIME) ./internal/mbr
	$(GO) test -run='^$$' -fuzz=FuzzPairAdmits -fuzztime=$(FUZZTIME) ./internal/query

test:
	$(GO) test ./...

# Paper gate: the whole evaluation at the paper's scale (10,000 objects,
# 100 queries, seed 1995) must print results_full.txt byte for byte —
# every number in it is a count. Too slow for tier-1 (~25 s; the
# `-quick` form is diffed by TestQuickGolden in internal/experiments);
# CI's paper job runs this. After an intended change:
#   go run ./cmd/topobench -exp all > results_full.txt
paper:
	$(GO) build -o $(CURDIR)/bin/topobench ./cmd/topobench
	$(CURDIR)/bin/topobench -exp all | diff -u results_full.txt -

# Toy-scale run of the bench/ harness (the module BENCHMARK.json
# names): root `go test ./...` cannot reach it because bench/ is a
# nested module. CI's bench-smoke job runs the same command.
bench-smoke:
	cd bench && $(GO) test ./...

# Alternating bench/run.sh pairs of BASE's committed files against the
# working tree: medians, BASE's interquartile range, the working tree's
# wins and failed operations for each end-to-end metric. A performance
# claim quotes it: make pairs BASE=HEAD N=10 WORKLOAD=hot
BASE ?= HEAD
N ?= 10
WORKLOAD ?= hot
pairs:
	bash scripts/pairs.sh $(BASE) $(N) $(WORKLOAD)

# Service smoke test: boot topod, query it, scrape /metrics, assert a
# clean SIGTERM drain, and check /v1/join pair counts against the
# topoquery serial engine (also run in CI).
smoke:
	$(GO) build -o $(CURDIR)/bin/topod ./cmd/topod
	$(GO) build -o $(CURDIR)/bin/topoquery ./cmd/topoquery
	$(GO) build -o $(CURDIR)/bin/datagen ./cmd/datagen
	bash scripts/smoke.sh $(CURDIR)/bin/topod $(CURDIR)/bin/topoquery $(CURDIR)/bin/datagen

fmt:
	gofmt -l -w .
