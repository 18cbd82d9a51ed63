GO      ?= go
SWARM_OUT ?= swarm.json
SWARM_SUBS ?= 1000
SWARM_COMPARE ?= swarm-gate-compare.json
SOAK_SUBS ?= 1000
SOAK_OUT ?= soak-metrics.jsonl
SOAK_GOMEMLIMIT ?= 512MiB
BENCH_A ?= HEAD~1
BENCH_B ?= HEAD
BENCH_PAIRS ?= 5
BENCH_OUT ?= bench/pair

.PHONY: all build test race vet loc benchmark-check bench-pair swarm swarm-gate swarm-baseline breakeven soak clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# DATA_PATH is what a deployment runs: the daemons and the two operator
# tools. Their dependency closure is the data path; every other package
# serves the paper's reproduction (tests/datapath_test.go holds the line).
DATA_PATH = ./cmd/ccbroker ./cmd/ccsend ./cmd/ccrecv ./cmd/ccstat ./cmd/cctrace

# loc prints the size figures ROADMAP and CHANGES.md track: non-test Go lines
# outside benchmark/ (comments and blanks included), the number of packages,
# and the same two numbers for the data path alone.
loc:
	@echo "non-test Go lines outside benchmark/: $$(find . -name '*.go' -not -name '*_test.go' -not -path './benchmark/*' -not -path './.benchpair/*' | xargs cat | wc -l)"
	@echo "packages: $$($(GO) list ./... | wc -l)"
	@pkgs=$$($(GO) list -deps $(DATA_PATH) | grep '^ccx/'); \
	echo "data path (deps of $(DATA_PATH)): $$($(GO) list -f '{{range .GoFiles}}{{$$.Dir}}/{{.}} {{end}}' $$pkgs | xargs cat | wc -l) non-test Go lines in $$(echo $$pkgs | wc -w) packages"

# benchmark-check builds, vets and tests the benchmark (its own module under
# benchmark/, which tier-1 does not compile) against this tree's internal/
# packages, so a signature change there cannot break it unnoticed.
benchmark-check:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# bench-pair measures commit BENCH_B against commit BENCH_A the way a PR that
# claims a gain must: BENCH_PAIRS alternating 20 s runs of every workload
# from clones of the two commits, one traced slow-link run per side, the
# --out records under $(BENCH_OUT)/{parent,change}/ and the compare table on
# stdout (an hour at the defaults; `make bench-pair BENCH_A=fe65f7f
# BENCH_OUT=bench/pr24` made bench/pr24).
bench-pair:
	bash scripts/benchpair.sh $(BENCH_A) $(BENCH_B) --pairs $(BENCH_PAIRS) \
		--traced p2p_slowlink_128k --out $(BENCH_OUT)

# swarm drives the subscriber-swarm harness: SWARM_SUBS subscribers over
# simulated links against an in-process broker, asserting the encode
# plane's >=10x deliveries-per-encode dedup and writing delivery-latency
# percentiles to $(SWARM_OUT). Broker placement exercises the per-class
# placement machinery at fan-out scale; the report carries the
# per-placement delivery breakdown.
swarm:
	$(GO) run ./cmd/ccswarm -subs $(SWARM_SUBS) -events 16 -block 16384 \
		-profiles gigabit,fast100 -interval 25ms -min-dedup 10 \
		-placement broker -json $(SWARM_OUT)

# swarm-gate re-runs the committed baseline's gated tiers (1k and the 10k
# acceptance tier) with the baseline's exact parameters and fails on a >15%
# p99 regression at any matched tier. The per-tier comparison lands in
# $(SWARM_COMPARE) so CI can upload it whether the gate passes or fails.
swarm-gate:
	$(GO) run ./cmd/ccswarm -tiers 1000,10000 -events 8 -block 2048 -interval 250ms \
		-profiles none -placement broker \
		-baseline bench/swarm_baseline.json -max-regress 0.15 -compare $(SWARM_COMPARE)

# swarm-baseline refreshes the committed connections-vs-p99 baseline from
# this machine. Keep the parameters in lockstep with swarm-gate.
swarm-baseline:
	$(GO) run ./cmd/ccswarm -tiers 1000,2500,5000,10000 -events 8 -block 2048 -interval 250ms \
		-profiles none -placement broker -json bench/swarm_baseline.json

# soak drives the overload-governor acceptance soak under -race: SOAK_SUBS
# stalled subscribers push a memory-capped broker (GOMEMLIMIT set) past its
# byte budget; it must refuse admission, degrade the method ladder, shed in
# bounded steps, stay under the cap, and fully recover with zero leaks. The
# final governor metrics snapshot lands in $(SOAK_OUT).
soak:
	GOMEMLIMIT=$(SOAK_GOMEMLIMIT) CCX_SOAK_SUBS=$(SOAK_SUBS) CCX_METRICS_OUT=$(SOAK_OUT) \
		$(GO) test -race -count=1 -run TestSoakOverloadGovernor -v ./internal/broker/

# breakeven regenerates the placement break-even sweep (EXPERIMENTS.md
# "Compression placement break-even") and its JSON artifact.
breakeven:
	CCX_BREAKEVEN_OUT=$(PWD)/breakeven.json CCX_BREAKEVEN_MD=$(PWD)/EXPERIMENTS.md \
		$(GO) test -run TestPlacementBreakEven -count=1 ./tests/

clean:
	rm -f swarm.json swarm-gate-compare.json breakeven.json soak-metrics.jsonl
