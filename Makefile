GO ?= go

.PHONY: build test verify lint bench fmt serve-smoke loadtest

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Full gate: vet + vetsim + gofmt cleanliness + build + race-enabled tests
# + golden repro + benchmark smoke oracle (the CI verify job runs exactly this).
verify:
	sh scripts/verify.sh

# Invariant analyzers only: determinism, cachekey, telemetry, hotpath
# (see internal/lintrules and DESIGN.md "Static analysis & invariants").
lint:
	$(GO) run ./cmd/vetsim ./...

# End-to-end daemon smoke: boot faultsimd, submit a tiny campaign over
# HTTP, check artifacts and metrics, shut down gracefully.
serve-smoke:
	sh scripts/serve_smoke.sh

# Load generator + SLO gate: replay specs/loadtest.json at full pressure
# against an admission-limited daemon; writes BENCH_loadgen.json and
# fails if submission p99 exceeds SLO_P99 (default 2.5s; gate arms on
# >= 2 CPUs).
loadtest:
	sh scripts/loadtest.sh

bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x .

fmt:
	gofmt -w ./benchmark ./cmd ./internal ./examples ./*.go
