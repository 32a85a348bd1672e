GO ?= go

.PHONY: build test verify stragglers lint bench fmt serve-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Full gate: vet + vetsim + gofmt cleanliness + build + race-enabled tests
# + golden repro + benchmark smoke oracle (the CI verify job runs exactly this).
verify:
	sh scripts/verify.sh

# Fails, listing them, if a daemon, benchmark, test binary or go command
# is still running; prints nothing otherwise. The last command of a
# session that started any of them.
stragglers:
	@sh scripts/stragglers.sh

# Invariant analyzers only: determinism, cachekey, telemetry, hotpath
# (see internal/lintrules and DESIGN.md "Static analysis & invariants"),
# plus the check that DESIGN.md's catalog and the //vetsim: markers name
# the same governed sets.
lint:
	$(GO) run ./cmd/vetsim ./...
	$(GO) test -run '^TestGovernedSetsMatchDesign$$' .

# End-to-end daemon smoke: boot faultsimd, submit a tiny campaign over
# HTTP, check artifacts and metrics, shut down gracefully; then the same
# on a coordinator + 2 workers with one worker killed mid-run.
serve-smoke:
	sh scripts/serve_smoke.sh

# Design-ablation benchmarks, one iteration each: they report each
# ablation's headline number. The paper's exhibits come from
# `go run ./cmd/repro -exhibit …`; speed is measured by the repository
# benchmark (sh benchmark/run.sh, benchmark/README.md).
bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x .

fmt:
	gofmt -w ./benchmark ./cmd ./internal ./*.go
