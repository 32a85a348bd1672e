#!/bin/sh
# verify.sh — the repo's full static + dynamic gate.
#
# Runs go vet, checks gofmt cleanliness, runs the test suite under the
# race detector, the golden repro and the benchmark's smoke-scale oracle.
# Prints each step's elapsed seconds and the total. Exits non-zero on the
# first failure. Invoked by `make verify`.
set -eu

cd "$(dirname "$0")/.."

# Leave nothing running, however this script ends: signal every process
# still below this shell (test binaries and `go test -fuzz` workers outlive
# a go command that was killed rather than left to finish).
descendants() {
	for child in $(pgrep -P "$1" 2>/dev/null); do
		echo "$child"
		descendants "$child"
	done
}
cleanup() {
	status=$?
	trap - EXIT INT TERM
	left=$(descendants $$)
	[ -z "$left" ] || kill $left 2>/dev/null || true
	exit "$status"
}
trap cleanup EXIT
trap 'exit 130' INT TERM

# step prints the elapsed whole seconds of the step before it, then heads
# the next one; `step ""` closes the last step.
started=$(date +%s)
step_started=""
step() {
	now=$(date +%s)
	[ -z "$step_started" ] || echo "    ($((now - step_started)) s)"
	step_started=$now
	[ -z "$1" ] || echo "==> $1"
}

step "go vet ./..."
go vet ./...

# Invariant analyzers (cmd/vetsim): determinism of artifact-producing
# packages, cache-key completeness against jobs.Spec, telemetry timing
# discipline in //vetsim:instrumented files (the AST-accurate successor
# of the old time.Since grep), and hot-path allocation/lock hygiene.
step "vetsim invariant analyzers"
go run ./cmd/vetsim ./...

step "gofmt -l"
unformatted=$(gofmt -l ./benchmark ./cmd ./internal ./*.go)
if [ -n "$unformatted" ]; then
	echo "gofmt: the following files need formatting:" >&2
	echo "$unformatted" >&2
	exit 1
fi

step "go build ./..."
go build ./...

step "go test -race ./..."
go test -race ./...

# Short fuzz smoke: each differential fuzzer (gatesim's, and perfi's
# session against a plain run) must at least survive its seed corpus plus
# a few seconds of mutation. Saved crashers
# under testdata/fuzz/ run as regular tests above; this step keeps the
# mutation machinery itself exercised. One -fuzz target per invocation
# (go test limitation).
step "fuzz smoke"
go test ./internal/gatesim -run '^$' -fuzz '^FuzzNetlistEval$' -fuzztime 5s
go test ./internal/perfi -run '^$' -fuzz '^FuzzSessionMatchesPlainRun$' -fuzztime 5s

# Golden end-to-end: the full default-scale repro output, byte-for-byte
# (timing masked). Runs without -race on purpose — the test skips itself
# under the race detector.
step "golden end-to-end (cmd/repro)"
go test ./cmd/repro -run '^TestReproGoldenDefault$' -count=1

# Session.Run's shortcuts (golden-table skips and the hang proof) against
# from-scratch runs over a whole software campaign at the benchmark's seed
# and a hold-out seed: 2640 injections per seed run twice, and every run
# skipped whole run again from scratch. Too long for -race, which skips
# both tests.
step "hang proof and skip oracle (internal/perfi)"
go test ./internal/perfi -run '^(TestHangProofMatchesWatchdog|TestSkippedRunsAreGoldenFromScratch)$' -count=1

# Benchmark oracle at smoke scale: expected.json output digests, the
# stepwise==RunTwoLevelCtx and replay==perfi.RunApp guards, the gate
# variant equivalences and the cold/warm/cluster artifact byte-identity.
# Must end in a JSON line with "correct": true (exit status 0).
step "benchmark smoke (go run ./benchmark -workload all -smoke)"
smoke=$(go run ./benchmark -workload all -smoke -seconds 0) || {
	# The table above the final JSON line says what was wrong.
	echo "$smoke" | sed '$d' | tail -n 40 >&2
	echo "benchmark smoke: outputs differ from benchmark/expected.json or a guard failed" >&2
	exit 1
}

# Both gates below run BenchmarkEventCampaign in internal/gatesim, beside
# the campaign loop (shard.go) they guard.
#
# Telemetry overhead smoke: the instrumented event-engine campaign must
# stay within 5% of its cost with telemetry disabled. Three short runs
# per mode, interleaved (on, off, on, off, ...) so host drift hits both
# sides alike, best-of (min ns/op) per side to shed scheduler noise.
step "telemetry overhead smoke (BenchmarkEventCampaign on vs off)"
bench_ns() {
	GPUFAULTSIM_TELEMETRY="$1" go test ./internal/gatesim \
		-run '^$' -bench '^BenchmarkEventCampaign$' -benchtime 2x -count 1 |
		awk '/^BenchmarkEventCampaign/ { print $3 }'
}
min_of() { printf '%s\n' "$@" | sort -g | head -n 1; }
ON_RUNS="" OFF_RUNS=""
for round in 1 2 3; do
	ON_RUNS="$ON_RUNS $(bench_ns on)"
	OFF_RUNS="$OFF_RUNS $(bench_ns off)"
done
ON=$(min_of $ON_RUNS)
OFF=$(min_of $OFF_RUNS)
[ -n "$ON" ] && [ -n "$OFF" ] || { echo "overhead smoke: benchmark produced no numbers" >&2; exit 1; }
echo "    enabled: ${ON} ns/op   disabled: ${OFF} ns/op"
awk -v on="$ON" -v off="$OFF" 'BEGIN {
	ratio = on / off
	printf "    ratio: %.4f (budget 1.05)\n", ratio
	exit (ratio > 1.05) ? 1 : 0
}' || { echo "telemetry overhead exceeds 5% budget" >&2; exit 1; }

# Allocation regression gate: the event-engine campaign allocates only
# per-campaign setup (~1.5k allocs at its 64 patterns). A single
# allocation leaking into the per-batch hot loop adds thousands per op —
# the budget below catches it while leaving headroom for setup drift.
# (Steady-state reuse across patterns is asserted separately by
# TestShardedCampaignSteadyStateAllocs.)
step "allocation regression gate (BenchmarkEventCampaign)"
ALLOCS=$(go test ./internal/gatesim -run '^$' -bench '^BenchmarkEventCampaign$' -benchtime 2x -benchmem |
	awk '/^BenchmarkEventCampaign/ { for (i = 1; i <= NF; i++) if ($i == "allocs/op") print $(i-1) }')
[ -n "$ALLOCS" ] || { echo "allocation gate: benchmark produced no allocs/op" >&2; exit 1; }
echo "    ${ALLOCS} allocs/op (budget 1670)"
[ "$ALLOCS" -le 1670 ] || { echo "allocation gate: ${ALLOCS} allocs/op exceeds budget of 1670" >&2; exit 1; }

# Hand-in check: every step above ran in the foreground, so a daemon,
# benchmark, test binary or go command alive now is a straggler.
step "straggler check"
sh scripts/stragglers.sh
step ""

echo "verify: OK ($(($(date +%s) - started)) s)"
