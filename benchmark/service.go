package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"gpufaultsim/internal/artifact"
	"gpufaultsim/internal/campaign"
	"gpufaultsim/internal/cluster"
	"gpufaultsim/internal/gatesim"
	"gpufaultsim/internal/jobs"
	"gpufaultsim/internal/store"
	"gpufaultsim/internal/units"
	"gpufaultsim/internal/workloads"
)

// service is the service_jobs workload: one closed loop run as three
// passes. serviceClients callers each submit a job spec to a
// jobs.Scheduler, wait on its progress stream until it closes, read every
// artifact back, and only then submit the next. The cold pass sends
// distinct specs to a fresh local scheduler (store writes), the warm pass
// sends each of them again to the same scheduler (every chunk a cache hit:
// store reads), and the cluster pass sends a few of them cold through a
// fresh lease ledger, a coordinator on loopback HTTP and one worker. One
// operation is one job, timed from Submit to the last artifact read; work
// is jobs. The specs are small on purpose (32 patterns, 2 injections, 3
// apps), so that job, store and cluster overheads stand above a fixed
// compute floor.
//
// Job latency comes in three classes an order of magnitude apart, so a
// percentile over all of them would sit on a class boundary: op_p50_s and
// op_p80_s are those of the cold pass, the class with samples enough for
// both, and the ledger reports each class's median by name. The warm pass
// is kept to one resubmission per spec: a warm job is ten small checkpoint
// files and little else, which on a virtual disk reads the host's disk and
// not this program (the same pass on tmpfs takes a third of the time and
// repeats to 3%), so its weight in wall_s is held to a few percent.
const serviceClients = 2

type service struct{}

// serviceEnv is a running daemon's worth of state with faultsimd's
// defaults: a 256 MiB store, two job workers, and in cluster mode a lease
// ledger, a coordinator on a loopback HTTP server and one worker process's
// worth of worker with its own store. Logs go nowhere (the nil Log of
// both cluster roles is telemetry.NopLogger).
type serviceEnv struct {
	dir   string
	store *store.Store
	sched *jobs.Scheduler

	coord      *cluster.Coordinator
	srv        *httptest.Server
	stopWorker context.CancelFunc
	workerDone chan struct{}
}

const storeBudget = 256 << 20

func startEnv(dir string, clustered, withWorker bool) (*serviceEnv, error) {
	e := &serviceEnv{dir: dir}
	var err error
	if e.store, err = store.Open(filepath.Join(dir, "cache"), storeBudget); err != nil {
		return nil, err
	}
	opts := jobs.Options{Dir: filepath.Join(dir, "jobs"), Store: e.store, JobWorkers: 2}
	if clustered {
		opts.Ledger = jobs.NewLedger(jobs.LedgerOptions{})
	}
	if e.sched, err = jobs.New(opts); err != nil {
		return nil, err
	}
	e.sched.Start(context.Background())
	if !clustered {
		return e, nil
	}
	if e.coord, err = cluster.NewCoordinator(cluster.CoordinatorOptions{Ledger: opts.Ledger, Store: e.store}); err != nil {
		e.stop()
		return nil, err
	}
	e.coord.Start(context.Background())
	e.srv = httptest.NewServer(e.coord.Handler())
	if !withWorker {
		return e, nil
	}
	ws, err := store.Open(filepath.Join(dir, "worker-cache"), storeBudget)
	if err != nil {
		e.stop()
		return nil, err
	}
	wk, err := cluster.NewWorker(cluster.WorkerOptions{
		Name: "bench-worker", Coordinator: e.srv.URL, Store: ws, MaxLeases: 2,
	})
	if err != nil {
		e.stop()
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	e.stopWorker, e.workerDone = cancel, make(chan struct{})
	go func() {
		defer close(e.workerDone)
		_ = wk.Run(ctx) // returns ctx.Err() once stopped; nothing else
	}()
	return e, nil
}

// stop shuts every goroutine of the environment down, waits for them, and
// removes its directory.
func (e *serviceEnv) stop() {
	e.sched.Stop()
	if e.stopWorker != nil {
		e.stopWorker()
		<-e.workerDone
	}
	if e.srv != nil {
		e.srv.Close()
	}
	if e.coord != nil {
		e.coord.Stop()
	}
	os.RemoveAll(e.dir)
}

// jobResult is one closed-loop operation.
type jobResult struct {
	spec      int // index into the spec list
	latency   float64
	submitSec float64
	chunks    int
	hits      int
	digest    string // digest of the artifacts, "" if the job failed
	sample    []byte // gate_wsc.json
}

// runJobs submits specs[order[k]] for every k from serviceClients callers.
func (e *serviceEnv) runJobs(specs []jobs.Spec, order []int, tr *tracer, parent int) []jobResult {
	out := make([]jobResult, len(order))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < serviceClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1)) - 1
				if k >= len(order) {
					return
				}
				out[k] = e.runJob(specs[order[k]], tr, parent)
				out[k].spec = order[k]
			}
		}()
	}
	wg.Wait()
	return out
}

func (e *serviceEnv) runJob(spec jobs.Spec, tr *tracer, parent int) (r jobResult) {
	job, t0 := tr.begin(parent, "jobs", fmt.Sprint("job seed ", spec.Seed)), time.Now()
	defer func() {
		r.latency = time.Since(t0).Seconds()
		tr.end(job)
	}()

	sp := tr.begin(job, "jobs", "Scheduler.Submit")
	st, err := e.sched.Submit(spec)
	r.submitSec = time.Since(t0).Seconds()
	tr.end(sp)
	if err != nil {
		return r
	}
	sp = tr.begin(job, "jobs", "Scheduler.Subscribe")
	if ch, _, ok := e.sched.Subscribe(st.ID); ok {
		for range ch {
		}
	}
	tr.end(sp)
	final, ok := e.sched.Job(st.ID)
	if !ok || final.State != jobs.StateDone {
		return r
	}
	r.chunks, r.hits = len(final.Chunks), final.CacheHits

	sp = tr.begin(job, "jobs", "Scheduler.Artifact")
	defer tr.end(sp)
	var digests []string
	for _, name := range final.Artifacts {
		b, ok := e.sched.Artifact(st.ID, name)
		if !ok {
			return r
		}
		if name == "gate_wsc.json" {
			r.sample = b
		}
		digests = append(digests, name+":"+artifact.DigestBytes(b))
	}
	r.digest, _ = artifact.Digest(digests) // a []string always marshals
	return r
}

type serviceInst struct {
	tmp      string
	specs    [inputVariants][]jobs.Spec // a repeat runs one variant's specs
	order    []int                      // every spec once: the cold pass, and the warm pass again
	cluster  []int                      // the specs of the cluster pass
	envCount int
	turn     variantTurn

	last servicePasses // the latest repeat of variant 0, for the ledger
}

// servicePasses is what one repeat's three passes returned.
type servicePasses struct {
	cold, warm, clustered []jobResult
	phases                map[jobs.Phase]float64 // of the cold pass
	coldStats, warmStats  store.Stats            // of each local pass alone
	allStats              store.Stats
}

func (service) setup(seed int64, sc scale, tmp string) (instance, error) {
	i := &serviceInst{tmp: tmp}
	for k := 0; k < pick(sc, 16, 2); k++ {
		for v := range i.specs {
			i.specs[v] = append(i.specs[v], jobs.Spec{
				Seed: variantSeed(seed, v) + int64(k), MaxPatterns: 32, Injections: 2,
				Apps:      []string{"vectoradd", "gemm", "bfs"},
				Profiling: []string{"vectoradd", "gemm", "mergesort"},
			})
		}
		i.order = append(i.order, k)
	}
	i.cluster = i.order[:pick(sc, 4, 2)]

	// Warm-up: two of the specs, cold and then warm, on a local scheduler.
	env, err := i.newEnv(false, false)
	if err != nil {
		return nil, err
	}
	defer env.stop()
	for _, r := range env.runJobs(i.specs[0], []int{0, 1, 0, 1}, nil, 0) {
		if r.digest == "" {
			return nil, fmt.Errorf("service: warm-up job for spec %d did not finish", r.spec)
		}
	}
	return i, nil
}

func (i *serviceInst) newEnv(clustered, withWorker bool) (*serviceEnv, error) {
	i.envCount++
	return startEnv(filepath.Join(i.tmp, fmt.Sprint("env", i.envCount)), clustered, withWorker)
}

func (i *serviceInst) close() { os.RemoveAll(i.tmp) }

// repeat runs the three passes. Starting and stopping the daemons between
// them is not timed: wall is the three closed loops.
func (i *serviceInst) repeat(tr *tracer) (repeatResult, error) {
	out := repeatResult{variant: i.turn.take(tr), counters: map[string]int64{}}
	specs := i.specs[out.variant]
	root := tr.begin(0, "bench", "closed loops")
	defer tr.end(root)
	timed := func(env *serviceEnv, order []int) []jobResult {
		t0 := time.Now()
		res := env.runJobs(specs, order, tr, root)
		out.wall += time.Since(t0).Seconds()
		return res
	}

	var p servicePasses
	local, err := i.newEnv(false, false)
	if err != nil {
		return out, err
	}
	p.cold = timed(local, i.order)
	p.phases, p.coldStats = local.sched.PhaseTimings(), local.store.Stats()
	p.warm = timed(local, i.order)
	p.allStats = local.store.Stats()
	p.warmStats = store.Stats{Hits: p.allStats.Hits - p.coldStats.Hits, Misses: p.allStats.Misses - p.coldStats.Misses}
	local.stop()

	remote, err := i.newEnv(true, true)
	if err != nil {
		return out, err
	}
	p.clustered = timed(remote, i.cluster)
	remote.stop()
	if out.variant == 0 {
		i.last = p
	}

	// The cold pass's artifacts are the reference: the warm and the cluster
	// pass must return them byte for byte.
	digests := make([]string, len(specs))
	for _, r := range p.cold {
		digests[r.spec] = r.digest
		out.ops = append(out.ops, r.latency)
	}
	for pass, results := range [][]jobResult{p.cold, p.warm, p.clustered} {
		name := []string{"cold", "warm", "cluster"}[pass]
		for _, r := range results {
			out.counters["chunks_"+name] += int64(r.chunks)
			out.counters["cache_hits_"+name] += int64(r.hits)
			if r.digest == "" || r.digest != digests[r.spec] {
				out.failed++
			}
		}
		out.counters["jobs"] += int64(len(results))
	}
	out.attempted = int(out.counters["jobs"])
	out.work = float64(out.attempted - out.failed)
	out.digest, err = artifact.Digest(digests)
	return out, err
}

func (i *serviceInst) ledger(tr *tracer) (map[string]float64, error) {
	p := i.last
	if p.cold == nil {
		return nil, fmt.Errorf("service ledger: no repeat of variant 0 to decompose")
	}
	tally := func(results []jobResult) (lat, submits []float64, chunks, hits int) {
		for _, r := range results {
			lat, submits = append(lat, r.latency), append(submits, r.submitSec)
			chunks, hits = chunks+r.chunks, hits+r.hits
		}
		return
	}
	coldLat, submits, coldChunks, coldHits := tally(p.cold)
	warmLat, _, warmChunks, warmHits := tally(p.warm)
	clusterLat, _, _, _ := tally(p.clustered)
	if coldHits != 0 {
		return nil, fmt.Errorf("service_jobs: %d cache hits on the cold pass; it no longer bypasses the store", coldHits)
	}
	if warmHits != warmChunks {
		return nil, fmt.Errorf("service_jobs: %d of %d chunks of the warm pass were cache hits; it no longer bypasses the simulators", warmHits, warmChunks)
	}
	njobs := float64(len(p.cold))
	perJob := float64(coldChunks) / njobs
	coldP50, warmP50, clusterP50 := percentile(coldLat, 50), percentile(warmLat, 50), percentile(clusterLat, 50)

	root := tr.begin(0, "bench", "service_ledger")
	defer tr.end(root)
	compute, err := i.computeDirect(tr, root, min(4, len(i.specs[0])))
	if err != nil {
		return nil, err
	}
	put, get, err := storeProbe(filepath.Join(i.tmp, "probe"), 0, tr, root)
	if err != nil {
		return nil, err
	}
	evict, _, err := storeProbe(filepath.Join(i.tmp, "probe-evict"), probeBytes/2, tr, root)
	if err != nil {
		return nil, err
	}
	rep, err := artifact.ReadGateReport(bytes.NewReader(p.cold[0].sample))
	if err != nil {
		return nil, err
	}
	var digestSecs []float64
	for k := 0; k < 51; k++ {
		digestSecs = append(digestSecs, tr.timed(root, "artifact", "artifact.Digest", func() { _, err = artifact.Digest(rep) }))
	}
	if err != nil {
		return nil, err
	}
	rtt, err := i.leaseRTT(tr, root)
	if err != nil {
		return nil, err
	}
	return map[string]float64{
		"jobs.cold_p50_s":         coldP50,
		"jobs.submit_s_p50":       percentile(submits, 50),
		"jobs.chunks_per_job":     perJob,
		"jobs.cache_hits_cold":    float64(coldHits),
		"jobs.compute_s_per_job":  compute,
		"jobs.overhead_s_per_job": coldP50 - compute,
		"jobs.phase_s.profile":    p.phases[jobs.PhaseProfile] / njobs,
		"jobs.phase_s.gate":       p.phases[jobs.PhaseGate] / njobs,
		"jobs.phase_s.software":   p.phases[jobs.PhaseSoftware] / njobs,
		"store.put_s_p50":         percentile(put, 50),
		"store.put_mb_per_s":      probeMB / sum(put),
		"store.evict_put_s_p50":   percentile(evict, 50),
		"store.hit_rate_cold":     p.coldStats.HitRate(),
		"store.bytes":             float64(p.allStats.Bytes),
		"store.entries":           float64(p.allStats.Entries),
		"artifact.digest_s":       median(digestSecs),

		"jobs.warm_p50_s":       warmP50,
		"jobs.warm_s_per_chunk": warmP50 / perJob,
		"jobs.cache_hits_warm":  float64(warmHits),
		"store.get_s_p50":       percentile(get, 50),
		"store.get_mb_per_s":    probeMB / sum(get),
		"store.hit_rate_warm":   p.warmStats.HitRate(),

		"jobs.cluster_p50_s":       clusterP50,
		"cluster.lease_rtt_s_p50":  percentile(rtt, 50),
		"cluster.chunk_overhead_s": (clusterP50 - coldP50) / perJob,
	}, nil
}

// computeDirect runs the first n specs' steps by calling the campaign
// package as the scheduler's chunks do, one after another, and returns the
// mean seconds per spec: the compute floor under a cold job.
func (i *serviceInst) computeDirect(tr *tracer, parent, n int) (float64, error) {
	t0 := time.Now()
	for _, spec := range i.specs[0][:n] {
		cfg := campaign.TwoLevelConfig{Seed: spec.Seed, MaxPatterns: spec.MaxPatterns, Injections: spec.Injections}
		for _, name := range spec.Profiling {
			cfg.ProfilingWorkloads = append(cfg.ProfilingWorkloads, workloads.ByName(name))
		}
		sp := tr.begin(parent, "profiler", "campaign.ProfileStep")
		prof, err := campaign.ProfileStep(cfg)
		tr.end(sp)
		if err != nil {
			return 0, err
		}
		patterns := prof.TopPatterns(spec.MaxPatterns)
		for _, u := range units.All() {
			sp = tr.begin(parent, "gatesim", "campaign.GateStep:"+u.Name)
			campaign.GateStep(u, patterns, false, gatesim.EngineEvent, 0)
			tr.end(sp)
		}
		for _, name := range spec.Apps {
			sp = tr.begin(parent, "perfi", "campaign.SoftwareStep:"+name)
			_, err := campaign.SoftwareStep(workloads.ByName(name), cfg)
			tr.end(sp)
			if err != nil {
				return 0, err
			}
		}
	}
	return time.Since(t0).Seconds() / float64(n), nil
}

// leaseRTT times POST /cluster/lease on a coordinator with nothing to
// lease and no worker attached.
func (i *serviceInst) leaseRTT(tr *tracer, parent int) ([]float64, error) {
	env, err := i.newEnv(true, false)
	if err != nil {
		return nil, err
	}
	defer env.stop()
	body, err := json.Marshal(cluster.LeaseRequest{Worker: "bench-probe", Max: 1})
	if err != nil {
		return nil, err
	}
	var rtts []float64
	for k := 0; k < 101; k++ {
		sp, t0 := tr.begin(parent, "cluster", "POST /cluster/lease"), time.Now()
		resp, err := http.Post(env.srv.URL+"/cluster/lease", "application/json", bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		var lr cluster.LeaseResponse
		err = json.NewDecoder(resp.Body).Decode(&lr)
		resp.Body.Close()
		rtts = append(rtts, time.Since(t0).Seconds())
		tr.end(sp)
		if err != nil || resp.StatusCode != http.StatusOK || len(lr.Grants) != 0 {
			return nil, fmt.Errorf("lease probe: status %d, %d grants, %v", resp.StatusCode, len(lr.Grants), err)
		}
	}
	return rtts, nil
}

// The store probe's working set: payloads the size of the larger chunks.
const (
	probeEntries = 128
	probeSize    = 32 << 10
	probeBytes   = probeEntries * probeSize
	probeMB      = float64(probeBytes) / (1 << 20)
)

// storeProbe times Put of the working set on a fresh store with the given
// byte budget and, when the budget is unlimited (0), Get of it afterwards;
// it returns the seconds of each call.
func storeProbe(dir string, budget int64, tr *tracer, parent int) (put, get []float64, err error) {
	st, err := store.Open(dir, budget)
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(dir)
	rng := rand.New(rand.NewSource(1))
	keys := make([]string, probeEntries)
	payload := make([]byte, probeSize)
	for k := range keys {
		rng.Read(payload)
		keys[k] = artifact.DigestBytes(payload)
		put = append(put, tr.timed(parent, "store", "Store.Put", func() { err = st.Put(keys[k], payload) }))
		if err != nil {
			return nil, nil, err
		}
	}
	if budget != 0 {
		return put, nil, nil
	}
	for _, key := range keys {
		var b []byte
		var ok bool
		get = append(get, tr.timed(parent, "store", "Store.Get", func() { b, ok = st.Get(key) }))
		if !ok || artifact.DigestBytes(b) != key {
			return nil, nil, fmt.Errorf("store probe: entry %s came back missing or altered", key[:8])
		}
	}
	return put, get, nil
}
