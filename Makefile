# Build and verification entry points. `make ci` is what .github/workflows/ci.yml
# runs; every target works offline with only the Go toolchain installed.

GO      ?= go
FUZZTIME ?= 30s

.PHONY: all build test race lint fmt vet ppmlint lint-concurrency lint-codegen escapes-check escapes-update bce-check bce-update inline-check inline-update gates perfbench-vet parallel-smoke block-smoke serve-smoke session-smoke check-quick check check-ittage fuzz-smoke ci

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# gofmt -l prints offending files; fail loudly instead of silently succeeding.
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needs to be run on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# The repository's own analyzers: ctxflow, determinism, falseshare,
# golifetime, hotpath, idxmask, ifaceassert, ifacecall, lockorder, mustclose,
# panicdoc, pow2mask.
ppmlint:
	$(GO) run ./cmd/ppmlint ./...

# Just the concurrency-discipline analyzers — goroutine lifetimes, context
# flow, lock ordering, unchecked cleanup errors — for a fast pre-commit pass
# and a named CI step. `make ppmlint` (via `make lint`) runs them too.
lint-concurrency:
	$(GO) run ./cmd/ppmlint -run golifetime,ctxflow,lockorder,mustclose ./...

# Compiler escape-budget gate over the hot-path packages: fails when any of
# them gains a heap escape beyond internal/lint/escapes.baseline.
escapes-check:
	$(GO) run ./cmd/escapegate

# Regenerate the escape baseline after an intentional change; commit the diff.
escapes-update:
	$(GO) run ./cmd/escapegate -update

# Bounds-check-elimination gate: fails when a hot-path file gains a surviving
# bounds check beyond internal/lint/bce.baseline. The idxmask analyzer (part
# of `make ppmlint`) points at the index derivation to fix.
bce-check:
	$(GO) run ./cmd/bcegate

# Regenerate the bounds-check baseline after an intentional change.
bce-update:
	$(GO) run ./cmd/bcegate -update

# Inlining-budget gate: every hot-set function must be inlinable or listed
# in internal/lint/inline.baseline with the compiler's cost and reason.
inline-check:
	$(GO) run ./cmd/inlinegate

# Regenerate the inlining baseline after an intentional change.
inline-update:
	$(GO) run ./cmd/inlinegate -update

# Just the codegen-adjacent analyzers — index-safety dataflow (idxmask) and
# atomic cache-line layout (falseshare) — for a fast pass over the predictor
# tables. `make ppmlint` (via `make lint`) runs them too.
lint-codegen:
	$(GO) run ./cmd/ppmlint -run idxmask,falseshare ./...

# All three compiler-diagnostic budget gates against their baselines.
gates: escapes-check bce-check inline-check

# The benchmark (bash perfbench/run.sh, described by BENCHMARK.json) lives in
# its own module, so neither `go build ./...` nor `go vet ./...` compiles it.
# Vet it here so a rename of anything it calls fails CI instead of the
# benchmark run.
perfbench-vet:
	cd perfbench && $(GO) vet ./...

# The parallel runner's correctness gate: byte-identical output across -j,
# single generation per trace, and the scheduler/cache under the race
# detector — including a short full-grid smoke at -j 4.
parallel-smoke:
	$(GO) test -run 'TestParallelDeterminism|TestDisabledCacheMatchesSerial' ./cmd/experiments
	$(GO) test -race ./internal/tracecache ./internal/sched
	$(GO) run -race ./cmd/experiments -all -events 2000 -j 4 -cachestats > /dev/null

# The block engine's correctness gate: the paper and extension grids must
# render the checked-in experiments_output.txt and experiments_ext_output.txt
# byte for byte, the engine and the block decode loop must stay
# allocation-free in steady state, and a short full-grid -j 4 run must hold
# up under the race detector.
block-smoke:
	$(GO) test -run 'TestGoldenOutputs' ./cmd/experiments
	$(GO) test -run 'TestBlockEngineZeroAllocSteadyState' ./internal/bench
	$(GO) test -run 'TestReadBlockZeroAllocSteadyState|TestBuilderPathsAgree' ./internal/trace
	$(GO) run -race ./cmd/experiments -all -events 2000 -j 4 -cachestats > /dev/null

# End-to-end gate for the serving subsystem: boots a real ppmserved on an
# ephemeral port, runs a fig6 job through ppmctl, diffs the rendered matrix
# byte-for-byte against scripts/testdata/serve-smoke-fig6.golden (which is
# the serial `experiments -fig6 -events 2000` output), and SIGTERMs the
# daemon with a job in flight to prove the drain completes cleanly.
serve-smoke:
	sh scripts/serve-smoke.sh

# End-to-end gate for the live-session subsystem: boots a real ppmserved,
# trains a session over a predict stream, snapshots it, restores the bytes
# into a fresh session, and requires byte-identical continuation — NDJSON
# prediction streams and final snapshots both — then SIGTERMs the daemon
# with live sessions to prove the drain completes cleanly.
session-smoke:
	sh scripts/session-smoke.sh

lint: fmt vet ppmlint

# The correctness harness's bounded CI pass: regression-corpus replay, a
# differential hunt of every predictor family against its naive reference,
# the metamorphic identities (cache on/off, worker counts, served vs serial,
# split vs concat sessions, upload vs batch), and byte-offset fault sweeps
# over the trace decoder and the upload endpoint.
check-quick:
	$(GO) run ./cmd/ppmcheck -quick

# The long-running hunt for local use; scales the differential search far
# past the CI bound. Divergences are minimized and written into the corpus.
check:
	$(GO) run ./cmd/ppmcheck -seeds 200 -events 5000

# Focused hunt for the modern predictor family: ITTAGE's incrementally
# folded geometric-history state and the u-bit cascade, lock-stepped against
# their bit-by-bit reference oracles — differential, blocks-vs-records and
# snapshot-restore hunts all included via the shared family registry.
check-ittage:
	$(GO) run ./cmd/ppmcheck -families ITTAGE,Cascade-u -seeds 40 -events 2500

# Short fuzz slices keep the parsers honest without turning CI into a
# fuzzing farm: the IBT2 trace reader, and the snapshot codec (round-trip
# identity plus typed-error rejection of corrupted/truncated state).
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzReader -fuzztime=$(FUZZTIME) ./internal/trace
	$(GO) test -run='^$$' -fuzz=FuzzStateRoundTrip -fuzztime=$(FUZZTIME) ./internal/state

ci: build lint lint-concurrency lint-codegen gates perfbench-vet race parallel-smoke block-smoke serve-smoke session-smoke check-quick fuzz-smoke
