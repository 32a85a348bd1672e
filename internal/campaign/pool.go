// Package campaign orchestrates the reproduction's experiment campaigns:
// a deterministic bounded-worker pool, parallel software-injection suites,
// and the end-to-end two-level pipeline (profile → gate-level campaigns →
// error classification) with the timing breakdown behind the paper's
// speed-up discussion.
package campaign

//vetsim:instrumented

import (
	"context"
	"runtime"
	"sync"

	"gpufaultsim/internal/telemetry"
)

// Pool utilization metrics: items are chunky (a whole unit campaign or
// app suite each), so per-item timing costs nothing relative to the
// work. The busy gauge against GOMAXPROCS is the worker-utilization
// signal the speed-up analysis wants.
var (
	telTasks   = telemetry.Default().Counter("campaign_tasks_total", "work items executed by the parallel-map pools")
	telTaskSec = telemetry.Default().Histogram("campaign_task_seconds", "per-item latency in the parallel-map pools", telemetry.SecondsBuckets())
	telBusy    = telemetry.Default().Gauge("campaign_workers_busy", "pool workers currently executing an item")
)

// runInstrumented executes one pool item with utilization accounting.
func runInstrumented[T, R any](f func(T) R, item T) R {
	telBusy.Add(1)
	tm := telemetry.StartTimer(telTaskSec)
	r := f(item)
	tm.Stop()
	telTasks.Inc()
	telBusy.Add(-1)
	return r
}

// ParallelMapCtx applies f to every item on up to workers goroutines and
// returns the results in input order. It is deterministic as long as f is
// a pure function of its input: scheduling never changes which result
// lands at which index. workers <= 0 selects GOMAXPROCS.
//
// When ctx is canceled no further items are dispatched; items already in
// flight run to completion. A non-nil error (ctx.Err()) means the result
// slice is partial and must be discarded.
func ParallelMapCtx[T, R any](ctx context.Context, items []T, workers int, f func(T) R) ([]R, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(items) {
		workers = len(items)
	}
	out := make([]R, len(items))
	if workers <= 1 {
		for i, it := range items {
			if err := ctx.Err(); err != nil {
				return out, err
			}
			out[i] = runInstrumented(f, it)
		}
		return out, nil
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				out[i] = runInstrumented(f, items[i])
			}
		}()
	}
	done := ctx.Done()
dispatch:
	for i := range items {
		select {
		case next <- i:
		case <-done:
			break dispatch
		}
	}
	close(next)
	wg.Wait()
	return out, ctx.Err()
}
