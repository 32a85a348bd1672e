package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"strconv"
)

// expected.json is the output oracle: for the seeds in oracleSeeds, the
// digest of each workload's outputs and its exact counters, per scale.
// Simulated statistics repeat exactly for a fixed seed, so any difference
// is a wrong output, not noise. Regenerate with -update-expected after a
// change that is meant to alter results, and say so in the change.
//
//go:embed expected.json
var expectedJSON []byte

// oracleSeeds are seed 1, the default, and one seed held back from
// development.
var oracleSeeds = []int64{1, 60221023}

type expectedEntry struct {
	Digest   string           `json:"digest"`
	Counters map[string]int64 `json:"counters"`
}

// expectedTable maps scale -> workload -> seed -> entry.
type expectedTable map[scale]map[string]map[string]*expectedEntry

var expected = func() expectedTable {
	var t expectedTable
	if err := json.Unmarshal(expectedJSON, &t); err != nil {
		panic("benchmark/expected.json: " + err.Error()) // embedded at build time; a bug, not input
	}
	return t
}()

// observed, when non-nil, collects what runs produce in place of checking
// it (-update-expected).
var observed expectedTable

func (t expectedTable) entry(sc scale, workload string, seed int64, create bool) *expectedEntry {
	key := strconv.FormatInt(seed, 10)
	e := t[sc][workload][key]
	if e == nil && create {
		if t[sc] == nil {
			t[sc] = map[string]map[string]*expectedEntry{}
		}
		if t[sc][workload] == nil {
			t[sc][workload] = map[string]*expectedEntry{}
		}
		e = &expectedEntry{Counters: map[string]int64{}}
		t[sc][workload][key] = e
	}
	return e
}

// checkExpected compares a digest ("" = none produced) and counters with
// the oracle and returns what disagrees. Seeds the oracle does not cover
// pass: their runs are held to self-consistency only.
func checkExpected(sc scale, workload string, seed int64, digest string, counters map[string]int64) []string {
	if !slices.Contains(oracleSeeds, seed) {
		return nil
	}
	if observed != nil {
		e := observed.entry(sc, workload, seed, true)
		if digest != "" {
			e.Digest = digest
		}
		for k, v := range counters {
			e.Counters[k] = v
		}
		return nil
	}
	e := expected.entry(sc, workload, seed, false)
	if e == nil {
		return []string{fmt.Sprintf("expected.json has no entry for %s/%s/seed %d", sc, workload, seed)}
	}
	var problems []string
	if digest != "" && digest != e.Digest {
		problems = append(problems, fmt.Sprintf("%s seed %d: output digest %s, expected %s", workload, seed, digest, e.Digest))
	}
	for _, k := range sortedKeys(counters) {
		want, ok := e.Counters[k]
		if !ok || want != counters[k] {
			problems = append(problems, fmt.Sprintf("%s seed %d: counter %s = %d, expected %d (present: %t)", workload, seed, k, counters[k], want, ok))
		}
	}
	return problems
}

// updateExpected reruns every workload on the oracle seeds at both scales,
// untraced and traced, and rewrites the oracle file.
func updateExpected(path, tmpRoot string) error {
	observed = expectedTable{}
	for _, sc := range []scale{scaleSmoke, scaleFull} {
		for _, w := range workloadDefs {
			for _, seed := range oracleSeeds {
				for _, trace := range []bool{false, true} {
					cfg := runConfig{workload: w.Name, seed: seed, seconds: 0, trace: trace, scale: sc, tmpRoot: tmpRoot}
					rec, err := run(cfg)
					if err != nil {
						return err
					}
					if !rec.Correct {
						return fmt.Errorf("%s/%s seed %d: run is not self-consistent: %v", sc, w.Name, seed, rec.Problems)
					}
					fmt.Fprintf(os.Stderr, "recorded %s %s seed %d trace %t\n", sc, w.Name, seed, trace)
				}
			}
		}
	}
	b, err := json.MarshalIndent(observed, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
