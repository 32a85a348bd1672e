package campaign

import (
	"context"
	"strings"
	"sync/atomic"
	"testing"

	"gpufaultsim/internal/errmodel"
	"gpufaultsim/internal/perfi"
	"gpufaultsim/internal/report"
	"gpufaultsim/internal/workloads"
)

func TestParallelMapOrderAndCompleteness(t *testing.T) {
	items := make([]int, 100)
	for i := range items {
		items[i] = i
	}
	for _, workers := range []int{0, 1, 3, 8, 200} {
		out, err := ParallelMapCtx(context.Background(), items, workers, func(x int) int { return x * x })
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d]=%d", workers, i, v)
			}
		}
	}
}

func TestParallelMapCtxCancel(t *testing.T) {
	items := make([]int, 1000)
	for i := range items {
		items[i] = i
	}
	ctx, cancel := context.WithCancel(context.Background())
	var n atomic.Int64
	_, err := ParallelMapCtx(ctx, items, 2, func(x int) int {
		if n.Add(1) == 10 {
			cancel()
		}
		return x
	})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := n.Load(); got >= 1000 {
		t.Fatalf("all %d items ran despite cancellation", got)
	}
}

func TestParallelMapCtxSingleWorkerCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out, err := ParallelMapCtx(ctx, []int{1, 2, 3}, 1, func(x int) int { return x })
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if out[0] != 0 {
		t.Fatal("item ran on already-canceled context")
	}
}

func TestParallelMapEmpty(t *testing.T) {
	out, err := ParallelMapCtx(context.Background(), nil, 4, func(x int) int { return x })
	if err != nil || len(out) != 0 {
		t.Fatal("non-empty result for empty input")
	}
}

func TestRunSuiteParallelMatchesSequential(t *testing.T) {
	apps := []workloads.Workload{workloads.VectorAdd{}, workloads.MxM{}}
	cfg := perfi.Config{Injections: 6, Seed: 3,
		Models: []errmodel.Model{errmodel.IAT, errmodel.IMS}}
	seq, err := perfi.RunSuite(apps, cfg)
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunSuiteParallelCtx(context.Background(), apps, cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range seq {
		if seq[i].App != par[i].App {
			t.Fatalf("app order differs: %s vs %s", seq[i].App, par[i].App)
		}
		for m, ts := range seq[i].ByModel {
			if tp := par[i].ByModel[m]; tp != ts {
				t.Errorf("%s/%v: sequential %+v != parallel %+v", seq[i].App, m, ts, tp)
			}
		}
	}
}

func TestRunTwoLevelEndToEnd(t *testing.T) {
	res, err := RunTwoLevelCtx(context.Background(), TwoLevelConfig{
		Seed:        1,
		MaxPatterns: 24,
		Injections:  4,
		ProfilingWorkloads: []workloads.Workload{
			workloads.VectorAdd{}, workloads.GEMM{},
		},
		EvalApps: []workloads.Workload{workloads.VectorAdd{}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Units) != 3 {
		t.Fatalf("units = %d, want 3", len(res.Units))
	}
	for _, u := range res.Units {
		if u.Summary.NumSWError == 0 {
			t.Errorf("%s: no SW-error faults found", u.Unit.Name)
		}
		if len(u.Report.Rows) == 0 {
			t.Errorf("%s: empty Table-5 rows", u.Unit.Name)
		}
	}
	if len(res.Apps) != 1 {
		t.Fatalf("apps = %d", len(res.Apps))
	}
	if res.Timing.GateFaults == 0 || res.Timing.GatePatterns != 24 {
		t.Errorf("timing bookkeeping wrong: %+v", res.Timing)
	}
	if res.Timing.SWInjections != 4*len(errmodel.Injectable()) {
		t.Errorf("SW injections = %d", res.Timing.SWInjections)
	}

	// The report layer must render everything without panicking.
	txt := report.Table4(res.Summaries()) +
		report.Table5(res.UnitReports()) +
		report.Fig9(res.Collectors(), res.FaultTotals()) +
		report.Fig10(res.Apps, errmodel.Injectable()) +
		report.Fig11(perfi.Average(res.Apps), errmodel.Injectable()) +
		res.Timing.Report()
	for _, want := range []string{"Table 4", "Table 5", "Figure 9", "Figure 10", "Figure 11", "speed-up"} {
		if !strings.Contains(txt, want) {
			t.Errorf("combined report missing %q", want)
		}
	}
}
