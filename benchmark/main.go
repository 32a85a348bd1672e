// Command benchmark is the repository's benchmark: four named workloads,
// end-to-end metrics with regression bounds, and a traced run that
// decomposes each workload by layer from outside. BENCHMARK.json at the
// repository root is the contract it is run under; README.md explains
// the metrics.
//
//	go run ./benchmark -workload golden_interp            # one end-to-end run
//	go run ./benchmark -workload golden_interp -trace 1   # its per-layer run
//	go run ./benchmark -runs 10 -out a.jsonl              # every workload, ten seeds
//	go run ./benchmark -compare a.jsonl b.jsonl           # hold b to a's bounds
//
// The GPU and netlist models are behavioural substitutes with no silicon
// reference in the repository (DESIGN.md), so the benchmark reports host
// time per unit of simulated work and exact simulated statistics, and no
// accuracy figure: the model is unvalidated.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
)

func main() {
	var (
		workloadName = flag.String("workload", "all", "workload to run, or all (each in a process of its own)")
		seed         = flag.Int64("seed", 1, "workload seed; inputs derive from it alone")
		seconds      = flag.Float64("seconds", runSeconds, "seconds of measurement per run")
		trace        = flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
		smoke        = flag.Bool("smoke", false, "miniature workloads (tests)")
		out          = flag.String("out", "", "append each run's record to this file as a JSON line")
		traceOut     = flag.String("trace-out", "", "with -trace 1, keep the Chrome trace here")
		runs         = flag.Int("runs", 1, "with -workload all: end-to-end runs per workload, on seeds seed, seed+1, ...")
		compare      = flag.Bool("compare", false, "compare two -out files given as arguments; exit 1 past a bound")
		tmpRoot      = flag.String("tmp", ".bench_build", "directory for stores, checkpoints and traces; emptied of them on exit")
		update       = flag.Bool("update-expected", false, "rerun the oracle seeds and rewrite benchmark/expected.json")
		emitSpec     = flag.Bool("emit-spec", false, "print BENCHMARK.json as this program defines it")
	)
	flag.Parse()
	runtime.GOMAXPROCS(min(runtime.NumCPU(), maxProcs))

	sc := scaleFull
	if *smoke {
		sc = scaleSmoke
	}
	var err error
	switch {
	case *emitSpec:
		err = writeSpec(os.Stdout)
	case *compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("-compare wants two files")
			break
		}
		var ok bool
		if ok, err = compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)); err == nil && !ok {
			os.Exit(1)
		}
	case *update:
		err = updateExpected("benchmark/expected.json", *tmpRoot)
	case *workloadName == "all":
		err = runAll(*seed, *seconds, *runs, *smoke, *out, *tmpRoot)
	default:
		var rec *record
		rec, err = run(runConfig{workload: *workloadName, seed: *seed, seconds: *seconds,
			trace: *trace != 0, scale: sc, tmpRoot: *tmpRoot, traceOut: *traceOut})
		if err != nil {
			break
		}
		if *out != "" {
			if err = appendRecord(*out, rec); err != nil {
				break
			}
		}
		printRecord(os.Stdout, rec)
		if !rec.Correct {
			os.Exit(1)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
}

func writeSpec(w io.Writer) error {
	spec := currentSpec()
	if err := spec.validate(); err != nil {
		return err
	}
	b, err := json.MarshalIndent(spec, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// printRecord prints every metric by name with its unit, what was wrong if
// anything was, and the contract's JSON object as the last line.
func printRecord(w io.Writer, r *record) {
	mode := "end-to-end"
	if r.Trace {
		mode = "per-layer (traced)"
	}
	fmt.Fprintf(w, "%s  seed %d  %s scale  %s  %d repeats  %d op samples  cpus %d gomaxprocs %d %s commit %s\n",
		r.Workload, r.Seed, r.Scale, mode, r.Repeats, r.OpCount,
		r.Host.CPUs, r.Host.GoMaxProcs, r.Host.GoVersion, r.Host.Commit)
	for _, name := range sortedKeys(r.Metrics) {
		m := r.Metrics[name]
		fmt.Fprintf(w, "  %-36s %16s %s\n", name, strconv.FormatFloat(m.Value, 'g', 8, 64), m.Unit)
	}
	for _, name := range sortedKeys(r.Counters) {
		fmt.Fprintf(w, "  counter %-28s %16d\n", name, r.Counters[name])
	}
	fmt.Fprintf(w, "  peak rss %.1f MB (VmHWM; unbounded, see README)\n  digest %s\n", r.PeakRSSMB, r.Digest)
	for _, p := range r.Problems {
		fmt.Fprintf(w, "  WRONG: %s\n", p)
	}
	fmt.Fprintln(w, r.contractLine())
}

func appendRecord(path string, r *record) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(r); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runAll runs every workload in a child process of its own, so that peak
// memory is per workload: runs end-to-end runs on consecutive seeds, then
// one traced run on the first seed.
func runAll(seed int64, seconds float64, runs int, smoke bool, out, tmpRoot string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	for _, w := range workloadDefs {
		for k := 0; k <= runs; k++ {
			args := []string{"-workload", w.Name, "-seconds", fmt.Sprint(seconds), "-tmp", tmpRoot,
				"-seed", fmt.Sprint(seed + int64(k%runs)), "-trace", "0"}
			if k == runs {
				args[len(args)-1] = "1"
			}
			if smoke {
				args = append(args, "-smoke")
			}
			if out != "" {
				args = append(args, "-out", out)
			}
			cmd := exec.Command(self, args...)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("%s %v: %w", w.Name, args, err)
			}
		}
	}
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
