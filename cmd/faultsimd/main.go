// Command faultsimd serves the two-level fault-injection campaign as a
// long-running daemon: clients POST campaign specs, poll or stream job
// progress, and fetch the final artifacts over plain HTTP. Completed
// chunk results live in a content-addressed cache shared across jobs, and
// that cache is the record of progress: a job's own record is written at
// submit and once at the end, so killing the daemon mid-campaign loses at
// most the chunks in flight — a restart re-runs each interrupted job from
// the cache and reproduces byte-identical artifacts. A node sizes its
// chunk and fault-batch pools to GOMAXPROCS; no width changes a byte.
//
// The daemon scales out with -role: a coordinator keeps the job API and
// additionally serves the cluster lease protocol, routing every chunk to
// workers that joined with -role worker -join <url>. Artifacts stay
// byte-identical to a single-node run at any worker count, and killing a
// worker mid-campaign costs only its in-flight leases.
//
// Logs are structured: one JSON line per event on stderr, levelled with
// -log-level, every line stamped with the role (and worker identity),
// and cluster events carrying the same run/job/chunk/worker IDs the
// distributed trace uses — a log line and its span grep together.
package main

//vetsim:instrumented

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"gpufaultsim/internal/cluster"
	"gpufaultsim/internal/jobs"
	"gpufaultsim/internal/store"
	"gpufaultsim/internal/telemetry"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8091", "listen address")
	dataDir := flag.String("data", "faultsimd-data", "state directory (job records + result cache)")
	cacheBudget := flag.Int64("cache-budget", 256<<20, "result cache budget in bytes")
	jobWorkers := flag.Int("job-workers", 2, "concurrently executing jobs")
	maxPending := flag.Int("max-pending", 0, "admission limit: queued+running jobs before POST /jobs answers 429 (0 = unbounded)")
	grace := flag.Duration("grace", 30*time.Second, "drain grace period on SIGTERM")
	enablePprof := flag.Bool("pprof", false, "serve net/http/pprof under /debug/pprof/")
	role := flag.String("role", "single", "single | coordinator | worker")
	join := flag.String("join", "", "coordinator base URL (worker role), e.g. http://host:8091")
	leaseTTL := flag.Duration("lease-ttl", 30*time.Second, "chunk lease TTL before the coordinator reassigns (coordinator role)")
	workerName := flag.String("worker-name", "", "worker identity in the cluster (worker role; default host-pid)")
	logLevel := flag.String("log-level", "info", "log verbosity: debug | info | warn | error")
	flag.Parse()

	logger := telemetry.NewLogger(os.Stderr, telemetry.ParseLogLevel(*logLevel),
		slog.String("role", *role))

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	st, err := store.Open(*dataDir+"/cache", *cacheBudget)
	if err != nil {
		fatal(logger, "open store", err)
	}

	if *role == "worker" {
		if *join == "" {
			fatal(logger, "flags", errors.New("-role worker requires -join <coordinator-url>"))
		}
		runWorker(ctx, logger, st, *addr, *join, *workerName)
		return
	}

	// Roles single and coordinator both run the scheduler and the job
	// API; the coordinator additionally routes chunks through the lease
	// ledger and serves the cluster protocol. Both own the job traces,
	// so the process flight recorder answers to "coordinator".
	telemetry.DefaultRecorder().SetOrigin("coordinator")
	var ledger *jobs.Ledger
	var coord *cluster.Coordinator
	if *role == "coordinator" {
		ledger = jobs.NewLedger(jobs.LedgerOptions{TTL: *leaseTTL})
	} else if *role != "single" {
		fatal(logger, "flags", fmt.Errorf("unknown -role %q (want single, coordinator or worker)", *role))
	}

	sched, err := jobs.New(jobs.Options{
		Dir:        *dataDir + "/jobs",
		Store:      st,
		JobWorkers: *jobWorkers,
		MaxPending: *maxPending,
		Ledger:     ledger,
	})
	if err != nil {
		fatal(logger, "scheduler", err)
	}

	requeued, recErrs := sched.Recover()
	for _, e := range recErrs {
		logger.Warn("recover", "error", e)
	}
	if requeued > 0 {
		logger.Info("recover: resuming interrupted jobs", "jobs", requeued)
	}

	sched.Start(context.Background())
	if ledger != nil {
		coord, err = cluster.NewCoordinator(cluster.CoordinatorOptions{
			Ledger: ledger, Store: st, Log: logger,
		})
		if err != nil {
			fatal(logger, "coordinator", err)
		}
		coord.Start(context.Background())
		logger.Info("coordinator up", "lease_ttl", leaseTTL.String())
	}

	srv := &http.Server{Addr: *addr, Handler: newServer(serverDeps{
		sched: sched, store: st, coord: coord, enablePprof: *enablePprof,
	})}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	logger.Info("listening", "addr", *addr, "data", *dataDir)

	select {
	case err := <-errc:
		fatal(logger, "serve", err)
	case <-ctx.Done():
	}

	// Graceful shutdown: stop accepting jobs, let in-flight work finish
	// within the grace period (chunks finished past it are in the cache
	// anyway), then close the listener.
	logger.Info("shutting down, draining", "grace", grace.String())
	if sched.Drain(*grace) {
		logger.Info("drained cleanly")
	} else {
		logger.Warn("grace expired; interrupted jobs will resume on restart")
	}
	if coord != nil {
		coord.Stop()
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logger.Warn("shutdown", "error", err)
	}
}

// runWorker joins a coordinator and computes leased chunks until
// SIGTERM. The local store deduplicates repeat chunks.
func runWorker(ctx context.Context, logger *slog.Logger, st *store.Store, addr, join, name string) {
	if name == "" {
		host, err := os.Hostname()
		if err != nil {
			host = "worker"
		}
		name = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	telemetry.DefaultRecorder().SetOrigin(name)
	// NewWorker bakes the worker attr into its own logger, so pass the
	// untagged one and tag only main's lines here.
	wk, err := cluster.NewWorker(cluster.WorkerOptions{
		Name: name, Coordinator: join, Store: st, Log: logger,
	})
	logger = logger.With(slog.String("worker", name))
	if err != nil {
		fatal(logger, "worker", err)
	}

	srv := &http.Server{Addr: addr, Handler: newWorkerServer(wk, st)}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	logger.Info("worker joining", "coordinator", join, "addr", addr)

	runc := make(chan error, 1)
	go func() { runc <- wk.Run(ctx) }()

	select {
	case err := <-errc:
		fatal(logger, "serve", err)
	case <-ctx.Done():
	}
	logger.Info("worker shutting down; abandoning unfinished leases to TTL reassignment")
	<-runc
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logger.Warn("shutdown", "error", err)
	}
}

// fatal logs one structured error line and exits non-zero.
func fatal(logger *slog.Logger, what string, err error) {
	logger.Error(what, "error", err)
	os.Exit(1)
}
