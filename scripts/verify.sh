#!/bin/sh
# verify.sh — the repo's full static + dynamic gate.
#
# Runs go vet, checks gofmt cleanliness, runs the test suite under the
# race detector, the golden repro and the benchmark's smoke-scale oracle.
# Exits non-zero on the first failure. Invoked by `make verify`.
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

echo "==> go vet ./..."
go vet ./...

# Invariant analyzers (cmd/vetsim): determinism of artifact-producing
# packages, cache-key completeness against jobs.Spec, telemetry timing
# discipline in //vetsim:instrumented files (the AST-accurate successor
# of the old time.Since grep), and hot-path allocation/lock hygiene.
echo "==> vetsim invariant analyzers"
go run ./cmd/vetsim ./...

echo "==> gofmt -l"
unformatted=$(gofmt -l ./benchmark ./cmd ./internal ./examples ./*.go)
if [ -n "$unformatted" ]; then
	echo "gofmt: the following files need formatting:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo "==> go build ./..."
go build ./...

echo "==> go test -race ./..."
go test -race ./...

# Short fuzz smoke: the differential fuzzers must at least survive their
# seed corpora plus a few seconds of mutation. Saved crashers under
# testdata/fuzz/ run as regular tests above; this step keeps the mutation
# machinery itself exercised. One -fuzz target per invocation (go test
# limitation).
echo "==> fuzz smoke"
go test ./internal/kasm -run '^$' -fuzz '^FuzzKasmParse$' -fuzztime 5s
go test ./internal/gatesim -run '^$' -fuzz '^FuzzNetlistEval$' -fuzztime 5s

# Golden end-to-end: the full default-scale repro output, byte-for-byte
# (timing masked). Runs without -race on purpose — the test skips itself
# under the race detector.
echo "==> golden end-to-end (cmd/repro)"
go test ./cmd/repro -run '^TestReproGoldenDefault$' -count=1

# Benchmark oracle at smoke scale: expected.json output digests, the
# stepwise==RunTwoLevelCtx and replay==perfi.RunApp guards, the gate
# variant equivalences and the cold/warm/cluster artifact byte-identity.
# Must end in a JSON line with "correct": true (exit status 0).
echo "==> benchmark smoke (go run ./benchmark -workload all -smoke)"
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
# per mode, best-of (min ns/op) to shed scheduler noise.
echo "==> telemetry overhead smoke (BenchmarkEventCampaign on vs off)"
bench_ns() {
	GPUFAULTSIM_TELEMETRY="$1" go test ./internal/gatesim \
		-run '^$' -bench '^BenchmarkEventCampaign$' -benchtime 2x -count 3 |
		awk '/^BenchmarkEventCampaign/ { if (best == 0 || $3 < best) best = $3 } END { print best }'
}
ON=$(bench_ns on)
OFF=$(bench_ns off)
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
echo "==> allocation regression gate (BenchmarkEventCampaign)"
ALLOCS=$(go test ./internal/gatesim -run '^$' -bench '^BenchmarkEventCampaign$' -benchtime 2x -benchmem |
	awk '/^BenchmarkEventCampaign/ { for (i = 1; i <= NF; i++) if ($i == "allocs/op") print $(i-1) }')
[ -n "$ALLOCS" ] || { echo "allocation gate: benchmark produced no allocs/op" >&2; exit 1; }
echo "    ${ALLOCS} allocs/op (budget 1670)"
[ "$ALLOCS" -le 1670 ] || { echo "allocation gate: ${ALLOCS} allocs/op exceeds budget of 1670" >&2; exit 1; }

# Hand-in check: every step above ran in the foreground, so a daemon,
# benchmark, test binary or go command alive now is a straggler
# (of this run or of whatever ran before it) and has to be stopped first.
# The brackets keep the probing shell's own command line from matching.
echo "==> straggler check"
stragglers=$(pgrep -fa '[f]aultsimd|bench_build/[b]enchmark|[.]test|go [r]un|go [t]est' || true)
if [ -n "$stragglers" ]; then
	echo "processes left running:" >&2
	echo "$stragglers" >&2
	exit 1
fi

echo "verify: OK"
