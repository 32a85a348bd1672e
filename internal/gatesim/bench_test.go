package gatesim

import (
	"testing"

	"gpufaultsim/internal/profiler"
	"gpufaultsim/internal/units"
	"gpufaultsim/internal/workloads"
)

// campaignPatterns profiles a small workload mix once for the campaign
// benchmark below. The count is fixed: both scripts/verify.sh budgets
// are stated at 64 patterns.
func campaignPatterns(b *testing.B) []units.Pattern {
	b.Helper()
	const pats = 64
	prof, err := profiler.Collect(
		[]workloads.Workload{workloads.VectorAdd{}, workloads.GEMM{}},
		profiler.Config{Seed: 1, MaxPatterns: pats})
	if err != nil {
		b.Fatal(err)
	}
	return prof.TopPatterns(pats)
}

// BenchmarkEventCampaign is a decoder campaign on the levelized
// event-driven engine (the default) at one worker. It is not a speed
// record — the repository benchmark times campaigns (go run ./benchmark
// -workload gate_sweep -trace 1) — but the subject of the two gates in
// scripts/verify.sh that guard the loop in shard.go: ns/op with telemetry
// on vs off must stay within 5%, and allocs/op must stay flat as the hot
// loop evolves, because the campaign's allocations are per-campaign setup
// only.
func BenchmarkEventCampaign(b *testing.B) {
	u := units.Decoder()
	patterns := campaignPatterns(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sum := CampaignCfg(u, patterns, nil, Config{Engine: EngineEvent, Workers: 1})
		b.ReportMetric(float64(sum.SimulatedSites), "sim-faults")
	}
}
