GO ?= go

.PHONY: all build vet test race tier1 bench bench-test bench-compare qdiff fuzz fmt

all: tier1

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# fmt fails on any file gofmt would change.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed on:" >&2; echo "$$out" >&2; exit 1; fi

# tier1 is the local gate, and CI's first step (fuzz is its second, qdiff its
# third).
tier1: fmt build vet test race bench-test

# bench-test vets and tests the benchmark harness, a Go module of its own
# that the root module's ./... does not reach.
bench-test:
	$(GO) vet -C bench ./...
	$(GO) test -C bench ./...

# bench runs the repository's benchmark (BENCHMARK.json, bench/README.md):
# all four workloads end to end against freshly built servers.
bench:
	bash bench/run.sh -workload all -seed 1

# bench-compare holds this checkout to BASE on every gated metric:
# make bench-compare BASE=<ref>
bench-compare:
	bash scripts/bench-compare.sh $(BASE)

# fuzz runs each Go fuzz target for FUZZTIME: the SQL parser behind
# pgserver's network input, the q parser behind hyperq's QIPC input, the PG v3
# server's frontend-message loop, and hyperq's decoding of backend replies
# (text and binary cells) into result columns. A crash lands as a corpus
# entry under the package's testdata/fuzz, which `go test` replays from then
# on.
FUZZTIME ?= 20s
fuzz:
	$(GO) test ./internal/pgdb/sqlparse -run '^$$' -fuzz '^FuzzParse$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/qlang/parse -run '^$$' -fuzz '^FuzzQParse$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/wire/pgv3 -run '^$$' -fuzz '^FuzzServerMessages$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/gateway -run '^$$' -fuzz '^FuzzClientResult$$' -fuzztime $(FUZZTIME)

# qdiff is the one list of differential-fuzzer legs; CI runs this target. It
# replays the CI seeds against the compiled engine (vector scans, fused
# aggregates, columnar joins and index paths included), plus sweeps of the
# interpreted engine to pin the retained AST walker, cold-reopen sweeps over
# the durable store — unbounded, and under a tight budget that churns
# segments through evict and refault — and sweeps with secondary indexes
# forced on, resident and across a cold reopen. The -persist sweeps run the
# vector fast paths over cold reopened segments: zone verdicts on evicted
# stubs and column-granular fault-in. Every leg reads its results over PG v3
# from the engine in the same process and runs each query twice, the rerun
# with binary cells.
qdiff:
	for s in 1 2 7 42; do $(GO) run ./cmd/qdiff -seed $$s -n 10000 -shrink > /dev/null || exit 1; done
	for s in 1 2 7 42; do $(GO) run ./cmd/qdiff -seed $$s -n 10000 -exec interpreted -shrink > /dev/null || exit 1; done
	for s in 1 2 7 42; do $(GO) run ./cmd/qdiff -seed $$s -n 10000 -persist -shrink > /dev/null || exit 1; done
	for s in 1 2 7 42; do $(GO) run ./cmd/qdiff -seed $$s -n 10000 -persist -mem-budget 65536 -shrink > /dev/null || exit 1; done
	for s in 1 2 7 42; do $(GO) run ./cmd/qdiff -seed $$s -n 10000 -index -shrink > /dev/null || exit 1; done
	for s in 1 2 7 42; do $(GO) run ./cmd/qdiff -seed $$s -n 10000 -index -persist -shrink > /dev/null || exit 1; done
