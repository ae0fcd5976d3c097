GO ?= go

.PHONY: all build vet test race tier1 bench bench-test bench-compare qdiff qdiff-runs reach fuzz fmt

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
# server's frontend-message loop, hyperq's decoding of backend replies
# (text and binary cells) into result columns, the translation cache's
# lifting of literals out of q text, the QIPC message codec with its
# decompressor, which read every client's bytes, the persist chunk codec,
# which reads every column file a cold fault opens, the persist WAL replay,
# which decodes every record of wal.log at open, and pgdb's three-valued
# predicate kernels, held to the walker on random predicate trees. A crash
# lands as a corpus entry under the package's testdata/fuzz, which `go test`
# replays from then on. Minimizing each new interesting input is capped at a second:
# at go's default of a minute, a target spends most of FUZZTIME minimizing
# instead of fuzzing.
FUZZTIME ?= 20s
FUZZFLAGS = -fuzztime $(FUZZTIME) -fuzzminimizetime 1s
fuzz:
	$(GO) test ./internal/pgdb/sqlparse -run '^$$' -fuzz '^FuzzParse$$' $(FUZZFLAGS)
	$(GO) test ./internal/qlang/parse -run '^$$' -fuzz '^FuzzQParse$$' $(FUZZFLAGS)
	$(GO) test ./internal/wire/pgv3 -run '^$$' -fuzz '^FuzzServerMessages$$' $(FUZZFLAGS)
	$(GO) test ./internal/gateway -run '^$$' -fuzz '^FuzzClientResult$$' $(FUZZFLAGS)
	$(GO) test ./internal/qcache -run '^$$' -fuzz '^FuzzLift$$' $(FUZZFLAGS)
	$(GO) test ./internal/wire/qipc -run '^$$' -fuzz '^FuzzQIPCMessage$$' $(FUZZFLAGS)
	$(GO) test ./internal/persist -run '^$$' -fuzz '^FuzzChunkCodec$$' $(FUZZFLAGS)
	$(GO) test ./internal/persist -run '^$$' -fuzz '^FuzzWALReplay$$' $(FUZZFLAGS)
	$(GO) test ./internal/pgdb -run '^$$' -fuzz '^FuzzPredicateKernels$$' $(FUZZFLAGS)

# qdiff is the one list of differential-fuzzer legs; CI runs this target. It
# replays the CI seeds against the serving engine (vector scans, fused
# aggregates, columnar joins and sorted-attribute ranges, with the AST walker
# as their only row fallback), plus sweeps of the walker alone (-exec
# interpreted), the reference both modes are held to, and cold-reopen sweeps
# over the durable store — unbounded, and under a tight budget that churns
# segments through evict and refault. The -persist sweeps run the vector
# fast paths over cold reopened segments: zone verdicts on evicted stubs and
# column-granular fault-in. Every leg reads its results over PG v3 from the
# engine in the same process and runs each query twice, the rerun with
# binary cells. QDIFF_LEGS lists each leg's extra flags, legs separated by
# '|' ("-" for none).
QDIFF_SEEDS = 1 2 7 42
QDIFF_LEGS = -|-exec interpreted|-persist|-persist -mem-budget 65536
qdiff:
	@$(MAKE) -s --no-print-directory qdiff-runs | while read -r run; do \
		echo "qdiff $$run"; \
		$(GO) run ./cmd/qdiff $$run -shrink < /dev/null > /dev/null || exit 1; \
	done

# qdiff-runs prints the flags of each qdiff run, one run a line: every leg
# at every seed. qdiff and scripts/reach.sh run exactly these.
qdiff-runs:
	@legs='$(QDIFF_LEGS)'; IFS='|'; for leg in $$legs; do \
		[ "$$leg" = - ] && leg=; \
		for s in $(QDIFF_SEEDS); do echo "-seed $$s -n 10000 $$leg"; done; \
	done

# reach prints, for each function of internal/pgdb and its SQL parser, the
# statements the qdiff legs and the other packages' tests reach — the
# evidence a deletion of engine code names. About four minutes on two
# cores; not part of CI.
reach:
	bash scripts/reach.sh
