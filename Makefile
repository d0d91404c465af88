# Tier-1 verification: everything a PR must keep green.
.PHONY: verify build vet test test-race chaos chaos-crash chaos-multicrash fuzz-smoke allocsites census pairs

verify:
	./scripts/verify.sh

# Where a benchmark workload's allocations, allocated bytes and retained heap
# come from: allocs_per_task, alloc_bytes_per_task and live_heap_mb split by
# package and by site, and the allocator's and the collector's share of host
# CPU (scripts/allocsites.sh). W names the workload. Given BASE on the command
# line or in the environment, the three memory tables compare the benchmark
# built at commit BASE with the working tree's, base -> change.
W ?= hicma_wide_shards2
allocsites:
	./scripts/allocsites.sh $(W) $(SEED) $(if $(filter-out file,$(origin BASE)),$(BASE))

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
# non-test), CLIs, flags, exported identifiers, options (exported fields of
# the Config/Options/Opts/Params structs and expd.Spec), the size of each
# root Markdown file and every test by name, one "key value" pair per line.
# Diff two censuses to describe a change's size.
census:
	./scripts/census.sh

# Chaos demonstration: the fault sweep on both backends and both graphs, a
# cmd/experiments chaos spec. verify.sh runs a one-rate subset under a time
# budget.
chaos:
	go run ./cmd/experiments -spec '{"kind":"chaos"}'

# Crash-recovery demonstration: crash rank 1 at 40% of the fault-free
# makespan on both backends and both workloads, verify the recovered
# factorization, replay it, and write results/chaos-crash-summary.csv.
chaos-crash:
	go run ./cmd/experiments -spec '{"kind":"chaos","crashes":["1@40%"]}' -csv results

# Multi-crash demonstration: a staggered two-crash cascade and a seeded
# three-crash storm on distinct random ranks, each recovered, verified, and
# replayed on both backends and both workloads. The cascade's summary
# (written as chaos-crash-summary.csv) refreshes
# results/chaos-multicrash-summary.csv.
chaos-multicrash:
	d=$$(mktemp -d) && go run ./cmd/experiments -spec '{"kind":"chaos","crashes":["1@40%","2@3ms"]}' -csv "$$d" && \
		cp "$$d/chaos-crash-summary.csv" results/chaos-multicrash-summary.csv && rm -r "$$d"
	go run ./cmd/experiments -spec '{"kind":"chaos","storm":3}'

# Short, fixed-budget fuzz passes over the wire-format decoders, the
# runtime's flat hash table, its ready/fetch queue, crash recovery's dead-set
# consensus, the calendar queue's firing order against reference heaps, the
# linalg kernels' bit identity with their reference bodies and the computed
# ping-pong graph against the explicit one (Go allows one -fuzz pattern per
# invocation). This is the one fuzz list: verify.sh runs this target.
fuzz-smoke:
	timeout 120 go test -run='^$$' -fuzz=FuzzUnmarshalPutHeader -fuzztime=2s ./internal/core
	timeout 120 go test -run='^$$' -fuzz=FuzzDecodeActivates -fuzztime=2s ./internal/parsec
	timeout 120 go test -run='^$$' -fuzz=FuzzDecodeGetData -fuzztime=2s ./internal/parsec
	timeout 120 go test -run='^$$' -fuzz=FuzzDecodePutMeta -fuzztime=2s ./internal/parsec
	timeout 120 go test -run='^$$' -fuzz=FuzzDecodeTermMsg -fuzztime=2s ./internal/parsec
	timeout 120 go test -run='^$$' -fuzz=FuzzFlatTable -fuzztime=2s ./internal/parsec
	timeout 120 go test -run='^$$' -fuzz=FuzzPrioQueue -fuzztime=2s ./internal/parsec
	timeout 120 go test -run='^$$' -fuzz=FuzzRecovery -fuzztime=2s ./internal/term
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
	timeout 120 go test -run='^$$' -fuzz=FuzzPingPongGraph -fuzztime=2s ./internal/bench

build:
	go build ./...

vet:
	go vet ./...

test:
	go test ./...

test-race:
	go test -race ./...
