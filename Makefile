# Tier-1 verification: everything a PR must keep green.
.PHONY: verify build vet test test-race chaos chaos-crash chaos-multicrash fuzz-smoke simd-smoke allocsites census pairs

verify:
	./scripts/verify.sh

# Where a benchmark workload's allocations, allocated bytes and retained heap
# come from: allocs_per_task, alloc_bytes_per_task and live_heap_mb split by
# package and by site, and the allocator's and the collector's share of host
# CPU (scripts/allocsites.sh). W names the workload.
W ?= hicma_wide_shards2
allocsites:
	./scripts/allocsites.sh $(W)

# Alternating before/after pairs (scripts/pairs.sh): the benchmark built at
# commit BASE and from the working tree runs workload W at SEED N times each,
# alternating which runs first, and every end-to-end metric is printed per
# pair, with each side's median and quartiles and how many pairs the change
# wins or ties.
BASE ?= HEAD
SEED ?= 3
N ?= 10
pairs:
	./scripts/pairs.sh $(W) $(BASE) $(SEED) $(N)

# Code census (scripts/census.sh): Go lines outside benchmark/ (test and
# non-test), CLIs, flags, exported identifiers and every test by name, one
# "key value" pair per line. Diff two censuses to describe a change's size.
census:
	./scripts/census.sh

# Chaos demonstration: fault sweep on both backends plus the severed-link
# abort. verify.sh runs the -quick subset under a time budget.
chaos:
	go run ./cmd/chaos
	go run ./cmd/chaos -sever

# Crash-recovery demonstration: crash rank 1 at 40% of the fault-free
# makespan on both backends and both workloads, verify the recovered
# factorization, replay it, and write results/chaos-crash-summary.csv.
chaos-crash:
	go run ./cmd/chaos -crash 1@40%

# Multi-crash demonstration: a staggered two-crash cascade and a seeded
# three-crash storm on distinct random ranks, each recovered, verified, and
# replayed on both backends and both workloads.
chaos-multicrash:
	go run ./cmd/chaos -crash 1@40%,2@3ms
	go run ./cmd/chaos -crash-storm 3

# Short, fixed-budget fuzz passes over the wire-format decoders, the
# runtime's flat hash table, the calendar queue's firing order against the
# reference heap and the linalg kernels' bit identity with their reference
# bodies (Go allows one -fuzz pattern per invocation). This is the
# one fuzz list: verify.sh runs this target.
fuzz-smoke:
	timeout 120 go test -run='^$$' -fuzz=FuzzUnmarshalPutHeader -fuzztime=2s ./internal/core
	timeout 120 go test -run='^$$' -fuzz=FuzzDecodeActivates -fuzztime=2s ./internal/parsec
	timeout 120 go test -run='^$$' -fuzz=FuzzDecodeGetData -fuzztime=2s ./internal/parsec
	timeout 120 go test -run='^$$' -fuzz=FuzzDecodePutMeta -fuzztime=2s ./internal/parsec
	timeout 120 go test -run='^$$' -fuzz=FuzzDecodeTermMsg -fuzztime=2s ./internal/parsec
	timeout 120 go test -run='^$$' -fuzz=FuzzFlatTable -fuzztime=2s ./internal/parsec
	timeout 120 go test -run='^$$' -fuzz=FuzzDecodeHeartbeat -fuzztime=2s ./internal/rel
	timeout 120 go test -run='^$$' -fuzz=FuzzDecodeCheckpoint -fuzztime=2s ./internal/recover
	timeout 120 go test -run='^$$' -fuzz=FuzzDecodeRereplicate -fuzztime=2s ./internal/recover
	timeout 120 go test -run='^$$' -fuzz=FuzzDecodeSpec -fuzztime=2s ./internal/expd
	timeout 120 go test -run='^$$' -fuzz=FuzzDecodeStealRequest -fuzztime=2s ./internal/steal
	timeout 120 go test -run='^$$' -fuzz=FuzzDecodeStealReply -fuzztime=2s ./internal/steal
	timeout 120 go test -run='^$$' -fuzz=FuzzDecodeStealRelease -fuzztime=2s ./internal/steal
	timeout 120 go test -run='^$$' -fuzz=FuzzInboxOrder -fuzztime=2s ./internal/sim
	timeout 120 go test -run='^$$' -fuzz=FuzzCalendarMatchesRef -fuzztime=2s ./internal/sim
	timeout 120 go test -run='^$$' -fuzz=FuzzKernelsMatchReference -fuzztime=2s ./internal/linalg

# End-to-end smoke of the simd experiment service: content-addressed cache
# hits with byte-identical CSV, mid-sweep cancel, and SIGINT checkpointing.
simd-smoke:
	./scripts/simd_smoke.sh

build:
	go build ./...

vet:
	go vet ./...

test:
	go test ./...

test-race:
	go test -race ./...
