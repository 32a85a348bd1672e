// Package jobs turns the one-shot two-level campaign into a resumable,
// deduplicated job service: a Spec describes a campaign, a deterministic
// chunker splits it into independent work units along the methodology's
// natural boundaries (one profiling pass, one gate-level campaign per
// unit, one software-injection campaign per application), and a bounded
// scheduler executes chunks through a content-addressed result cache that
// is also the record of progress: each job's own record is written once at
// submit and once at the end. A daemon killed mid-campaign re-runs its
// unfinished jobs and produces byte-identical artifacts while skipping
// every chunk whose result is already in the cache.
package jobs

//vetsim:deterministic

import (
	"fmt"

	"gpufaultsim/internal/artifact"
	"gpufaultsim/internal/campaign"
	"gpufaultsim/internal/cnn"
	"gpufaultsim/internal/workloads"
)

// Spec is the serializable description of one two-level campaign job.
// It deliberately excludes execution knobs that cannot change results
// (worker counts), so the spec digest identifies the *outcome*: two specs
// with equal digests always produce byte-identical artifacts.
type Spec struct {
	Seed        int64 `json:"seed"`
	MaxPatterns int   `json:"max_patterns,omitempty"` // 0 = 512
	Injections  int   `json:"injections,omitempty"`   // 0 = 50

	// Apps are the software-injection targets by Table-1 name
	// (empty = the 13 non-CNN evaluation apps).
	Apps []string `json:"apps,omitempty"`
	// Profiling are the pattern-extraction workloads by name
	// (empty = the paper's 14 representative codes).
	Profiling []string `json:"profiling,omitempty"`
}

// WithDefaults returns the spec with zero-valued fields filled in, so the
// digest of an explicit spec matches its shorthand form.
func (s Spec) WithDefaults() Spec {
	if s.MaxPatterns == 0 {
		s.MaxPatterns = 512
	}
	if s.Injections == 0 {
		s.Injections = 50
	}
	if len(s.Apps) == 0 {
		for _, w := range workloads.Evaluation() {
			s.Apps = append(s.Apps, w.Name())
		}
	}
	if len(s.Profiling) == 0 {
		for _, w := range workloads.Profiling() {
			s.Profiling = append(s.Profiling, w.Name())
		}
	}
	return s
}

// Campaign-size ceilings for specs arriving over the network: 100x the
// paper scale (cmd/repro -scale paper runs 4096 patterns and 1000
// injections per app per model). Anything larger is a typo or an attempt
// to pin a job worker, not a campaign.
const (
	maxSpecPatterns   = 100 * 4096
	maxSpecInjections = 100 * 1000
)

// Validate checks the campaign sizes against their bounds and that every
// named workload resolves.
func (s Spec) Validate() error {
	s = s.WithDefaults()
	if s.MaxPatterns < 0 || s.Injections < 0 {
		return fmt.Errorf("jobs: negative campaign size")
	}
	if s.MaxPatterns > maxSpecPatterns {
		return fmt.Errorf("jobs: max_patterns %d exceeds the limit of %d", s.MaxPatterns, maxSpecPatterns)
	}
	if s.Injections > maxSpecInjections {
		return fmt.Errorf("jobs: injections %d exceeds the limit of %d", s.Injections, maxSpecInjections)
	}
	for _, name := range append(append([]string{}, s.Apps...), s.Profiling...) {
		if cnn.ByName(name) == nil {
			return fmt.Errorf("jobs: unknown workload %q", name)
		}
	}
	return nil
}

// Digest fingerprints the defaulted spec.
func (s Spec) Digest() (string, error) {
	return artifact.Digest(s.WithDefaults())
}

// resolve maps workload names to values. Validate first; unknown names
// panic here.
func resolve(names []string) []workloads.Workload {
	out := make([]workloads.Workload, len(names))
	for i, n := range names {
		w := cnn.ByName(n)
		if w == nil {
			panic(fmt.Sprintf("jobs: unresolved workload %q", n))
		}
		out[i] = w
	}
	return out
}

// campaignConfig translates the defaulted spec into the campaign config
// the step functions consume.
func (s Spec) campaignConfig() campaign.TwoLevelConfig {
	return campaign.TwoLevelConfig{
		Seed:               s.Seed,
		MaxPatterns:        s.MaxPatterns,
		Injections:         s.Injections,
		ProfilingWorkloads: resolve(s.Profiling),
		EvalApps:           resolve(s.Apps),
	}
}
