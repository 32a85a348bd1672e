package perfi

import (
	"fmt"
	"math/rand"

	"gpufaultsim/internal/errmodel"
	"gpufaultsim/internal/gpu"
	"gpufaultsim/internal/workloads"
)

// Config parameterizes a software-level error-injection campaign.
type Config struct {
	// Injections per application per error model (the paper uses 1,000;
	// scaled-down campaigns preserve the EPR shapes).
	Injections int
	// Models to inject; defaults to errmodel.Injectable().
	Models []errmodel.Model
	// Seed drives descriptor sampling and workload data generation.
	Seed int64
	// Device overrides the GPU configuration (zero value = default).
	Device gpu.Config
}

func (c Config) withDefaults() Config {
	if c.Injections == 0 {
		c.Injections = 100
	}
	if len(c.Models) == 0 {
		c.Models = errmodel.Injectable()
	}
	return c
}

// Tally counts outcomes of a set of injections.
type Tally struct {
	Masked, SDC, DUE int
}

// Total returns the number of injections recorded.
func (t Tally) Total() int { return t.Masked + t.SDC + t.DUE }

// Add records one outcome.
func (t *Tally) Add(o workloads.Outcome) {
	switch o {
	case workloads.OutcomeMasked:
		t.Masked++
	case workloads.OutcomeSDC:
		t.SDC++
	default:
		t.DUE++
	}
}

// Rate returns (masked, sdc, due) as fractions of the total.
func (t Tally) Rate() (masked, sdc, due float64) {
	n := float64(t.Total())
	if n == 0 {
		return 0, 0, 0
	}
	return float64(t.Masked) / n, float64(t.SDC) / n, float64(t.DUE) / n
}

// AppResult is one application's EPR breakdown per error model
// (one group of bars in the paper's Figure 10).
type AppResult struct {
	App     string
	ByModel map[errmodel.Model]Tally
}

// EPR returns the fraction of injections that propagated to the output
// (SDC or DUE) for the model.
func (r *AppResult) EPR(m errmodel.Model) float64 {
	t := r.ByModel[m]
	if t.Total() == 0 {
		return 0
	}
	return float64(t.SDC+t.DUE) / float64(t.Total())
}

// RunApp executes a full injection campaign for one application: a golden
// run followed by Injections faulty runs per model, each with a fresh
// random error descriptor.
func RunApp(w workloads.Workload, cfg Config) (*AppResult, error) {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	sess, err := NewSession(w, cfg.Seed, cfg.Device)
	if err != nil {
		return nil, err
	}
	res := &AppResult{App: w.Name(), ByModel: make(map[errmodel.Model]Tally)}
	for _, m := range cfg.Models {
		var tally Tally
		for i := 0; i < cfg.Injections; i++ {
			d := errmodel.Random(m, rng, sess.MaxWarps, sess.Device.PPBsPerSM)
			_, outcome, err := sess.Run(d)
			if err != nil {
				return nil, fmt.Errorf("perfi: %s/%v injection %d: %w",
					w.Name(), m, i, err)
			}
			tally.Add(outcome)
		}
		res.ByModel[m] = tally
	}
	return res, nil
}

// RunSuite runs campaigns for several applications and returns results in
// input order.
func RunSuite(apps []workloads.Workload, cfg Config) ([]*AppResult, error) {
	out := make([]*AppResult, 0, len(apps))
	for _, w := range apps {
		r, err := RunApp(w, cfg)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// Average aggregates per-model tallies across applications (Figure 11).
func Average(results []*AppResult) map[errmodel.Model]Tally {
	agg := make(map[errmodel.Model]Tally)
	for _, r := range results {
		for m, t := range r.ByModel {
			a := agg[m]
			a.Masked += t.Masked
			a.SDC += t.SDC
			a.DUE += t.DUE
			agg[m] = a
		}
	}
	return agg
}
