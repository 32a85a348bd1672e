package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// readRecords loads a -out file: one JSON record per line.
func readRecords(path string) ([]*record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []*record
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		r := &record{}
		if err := json.Unmarshal(sc.Bytes(), r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// verdict of one (metric, workload) pairing.
type verdict string

const (
	verdictOK         verdict = "ok"
	verdictWorse      verdict = "WORSE"
	verdictUnresolved verdict = "unresolved"
)

// judge compares set b with set a on one metric. b is worse when its
// median is worse than a's by more than bound, as a share of a's median.
// Where either set's spread exceeds the bound the difference cannot be
// told from noise: unresolved, unless every run of b reads better than
// every run of a. setup_s is held to its medians alone, as the driver holds
// it: a set-up is too short to repeat often enough to steady its quartiles.
func judge(def metricDef, a, b []float64) (rel float64, v verdict) {
	ma, mb := median(a), median(b)
	rel = (mb - ma) / ma
	worse := rel
	if def.Better == "higher" {
		worse = -rel
	}
	if def.Name != "setup_s" && (spread(a) > def.Bound || spread(b) > def.Bound) {
		sa, sb := sorted(a), sorted(b)
		allBetter := sb[len(sb)-1] < sa[0]
		if def.Better == "higher" {
			allBetter = sb[0] > sa[len(sa)-1]
		}
		if !allBetter {
			return rel, verdictUnresolved
		}
	}
	if worse > def.Bound {
		return rel, verdictWorse
	}
	return rel, verdictOK
}

// compareFiles prints, per end-to-end metric and workload, both sets'
// medians and quartiles and b's difference relative to a, then checks
// that runs of the same workload, seed and mode agree exactly on digests
// and counters. It reports whether b holds: nothing worse, nothing
// unresolved, nothing different that should repeat exactly.
func compareFiles(w io.Writer, pathA, pathB string) (bool, error) {
	a, err := readRecords(pathA)
	if err != nil {
		return false, err
	}
	b, err := readRecords(pathB)
	if err != nil {
		return false, err
	}
	values := func(rs []*record, workload, metric string) []float64 {
		var out []float64
		for _, r := range rs {
			if m, ok := r.Metrics[metric]; ok && r.Workload == workload && !r.Trace {
				out = append(out, m.Value)
			}
		}
		return out
	}
	holds := true
	fmt.Fprintf(w, "%-17s %-12s %36s %36s %9s  %s\n", "workload", "metric",
		"a: median [q1, q3] n", "b: median [q1, q3] n", "b vs a", "verdict (bound)")
	for _, wd := range workloadDefs {
		for _, def := range endToEnd {
			va, vb := values(a, wd.Name, def.Name), values(b, wd.Name, def.Name)
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(w, "%-17s %-12s missing from a set (a: %d runs, b: %d runs)\n", wd.Name, def.Name, len(va), len(vb))
				holds = false
				continue
			}
			rel, v := judge(def, va, vb)
			if v != verdictOK {
				holds = false
			}
			cell := func(xs []float64) string {
				q1, m, q3 := quartiles(xs)
				return fmt.Sprintf("%.5g [%.5g, %.5g] %d", m, q1, q3, len(xs))
			}
			fmt.Fprintf(w, "%-17s %-12s %36s %36s %+8.2f%%  %s (%.0f%%, %s is better)\n", wd.Name, def.Name,
				cell(va), cell(vb), 100*rel, v, 100*def.Bound, def.Better)
		}
	}

	// Exact repeats: simulated statistics and outputs for a fixed seed.
	type key struct {
		workload string
		seed     int64
		trace    bool
		scale    scale
	}
	first := map[key]*record{}
	for _, r := range append(append([]*record{}, a...), b...) {
		k := key{r.Workload, r.Seed, r.Trace, r.Scale}
		f, seen := first[k]
		if !seen {
			first[k] = r
			continue
		}
		if f.Digest != r.Digest {
			fmt.Fprintf(w, "DIFFERENT %s seed %d: digest %s vs %s\n", r.Workload, r.Seed, f.Digest, r.Digest)
			holds = false
		}
		for _, name := range sortedKeys(r.Counters) {
			if f.Counters[name] != r.Counters[name] {
				fmt.Fprintf(w, "DIFFERENT %s seed %d: counter %s %d vs %d\n", r.Workload, r.Seed, name, f.Counters[name], r.Counters[name])
				holds = false
			}
		}
	}
	return holds, nil
}
