// Package artifact serializes campaign results to JSON — the analog of
// the gate-level analyses and software-level reports the paper publishes
// in its artifact repository. Artifacts are deterministic (stable field
// ordering, no timestamps in the payload body), so repeated runs of the
// same (seed, config) produce byte-identical files.
package artifact

//vetsim:deterministic

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"gpufaultsim/internal/errclass"
	"gpufaultsim/internal/errmodel"
	"gpufaultsim/internal/gatesim"
	"gpufaultsim/internal/perfi"
)

// Version identifies the artifact schema.
const Version = 1

// GateReport is the serializable result of one unit's gate-level campaign.
type GateReport struct {
	Schema   int    `json:"schema"`
	Unit     string `json:"unit"`
	Seed     int64  `json:"seed"`
	Patterns int    `json:"patterns"`

	TotalFaults    int `json:"total_faults"`
	Uncontrollable int `json:"uncontrollable"`
	HWMasked       int `json:"hw_masked"`
	HWHang         int `json:"hw_hang"`
	SWErrors       int `json:"sw_errors"`

	// Models holds the per-error-model rows of Table 5 / Figure 9, sorted
	// by model name.
	Models []GateModelRow `json:"models"`
}

// GateModelRow is one (unit, model) row.
type GateModelRow struct {
	Model         string  `json:"model"`
	FaultsCausing int     `json:"faults_causing"`
	FAPRPercent   float64 `json:"fapr_percent"`
	TimesProduced int     `json:"times_produced"`
}

// NewGateReport assembles the artifact from a campaign summary and its
// classification collector.
func NewGateReport(seed int64, sum *gatesim.Summary, col *errclass.Collector) *GateReport {
	r := &GateReport{
		Schema: Version, Unit: sum.Unit, Seed: seed, Patterns: sum.Patterns,
		TotalFaults:    len(sum.Faults),
		Uncontrollable: sum.NumUncontrollable,
		HWMasked:       sum.NumMasked,
		HWHang:         sum.NumHang,
		SWErrors:       sum.NumSWError,
	}
	for _, m := range errmodel.All() {
		n := col.FaultsCausing(m)
		if n == 0 {
			continue
		}
		r.Models = append(r.Models, GateModelRow{
			Model:         m.String(),
			FaultsCausing: n,
			FAPRPercent:   100 * col.FAPR(m, r.TotalFaults),
			TimesProduced: col.Events[m],
		})
	}
	sort.Slice(r.Models, func(i, j int) bool { return r.Models[i].Model < r.Models[j].Model })
	return r
}

// SoftwareReport is the serializable result of a software-injection
// campaign (Figure 10's data).
type SoftwareReport struct {
	Schema     int   `json:"schema"`
	Seed       int64 `json:"seed"`
	Injections int   `json:"injections_per_model"`

	Apps []AppRow `json:"apps"`
}

// AppRow is one application's outcome table.
type AppRow struct {
	App    string     `json:"app"`
	Models []ModelRow `json:"models"`
}

// ModelRow is one (app, model) outcome tally.
type ModelRow struct {
	Model  string `json:"model"`
	Masked int    `json:"masked"`
	SDC    int    `json:"sdc"`
	DUE    int    `json:"due"`
}

// NewSoftwareReport assembles the artifact from campaign results.
func NewSoftwareReport(seed int64, injections int, results []*perfi.AppResult) *SoftwareReport {
	r := &SoftwareReport{Schema: Version, Seed: seed, Injections: injections}
	for _, app := range results {
		row := AppRow{App: app.App}
		var models []errmodel.Model
		for m := range app.ByModel {
			models = append(models, m)
		}
		sort.Slice(models, func(i, j int) bool { return models[i] < models[j] })
		for _, m := range models {
			t := app.ByModel[m]
			row.Models = append(row.Models, ModelRow{
				Model: m.String(), Masked: t.Masked, SDC: t.SDC, DUE: t.DUE,
			})
		}
		r.Apps = append(r.Apps, row)
	}
	return r
}

// Write emits an artifact in its file form: two-space indented JSON and a
// trailing newline (the daemon's job artifacts).
func Write(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// ReadGateReport parses a gate-level artifact and validates its schema.
func ReadGateReport(r io.Reader) (*GateReport, error) {
	var out GateReport
	if err := json.NewDecoder(r).Decode(&out); err != nil {
		return nil, fmt.Errorf("artifact: %w", err)
	}
	if out.Schema != Version {
		return nil, fmt.Errorf("artifact: schema %d, want %d", out.Schema, Version)
	}
	return &out, nil
}

// ReadSoftwareReport parses a software-campaign artifact.
func ReadSoftwareReport(r io.Reader) (*SoftwareReport, error) {
	var out SoftwareReport
	if err := json.NewDecoder(r).Decode(&out); err != nil {
		return nil, fmt.Errorf("artifact: %w", err)
	}
	if out.Schema != Version {
		return nil, fmt.Errorf("artifact: schema %d, want %d", out.Schema, Version)
	}
	return &out, nil
}
