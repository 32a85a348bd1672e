GO ?= go

.PHONY: build test verify lint bench fmt serve-smoke

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
# HTTP, check artifacts and metrics, shut down gracefully; then the same
# on a coordinator + 2 workers with one worker killed mid-run.
serve-smoke:
	sh scripts/serve_smoke.sh

# Paper exhibit and design-ablation benchmarks, one iteration each: they
# regenerate the exhibits' headline numbers. Speed is measured by the
# repository benchmark instead (sh benchmark/run.sh, benchmark/README.md).
bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x .

fmt:
	gofmt -w ./benchmark ./cmd ./internal ./examples ./*.go
