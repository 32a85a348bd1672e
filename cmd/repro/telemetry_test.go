package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"syscall"
	"testing"

	"gpufaultsim/internal/telemetry"
)

// TestTelemetryReportFlag checks the -telemetry plumbing: a run writes a
// JSON report containing the metrics snapshot and the run's span tree,
// and a run whose report cannot be written fails.
func TestTelemetryReportFlag(t *testing.T) {
	telemetry.DefaultRecorder().Reset()
	path := filepath.Join(t.TempDir(), "telemetry.json")
	var buf bytes.Buffer
	if err := run([]string{"-seed", "1", "-exhibit", "table1", "-telemetry", path}, &buf); err != nil {
		t.Fatalf("repro run failed: %v", err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("telemetry report not written: %v", err)
	}
	var rep telemetry.Report
	if err := json.Unmarshal(b, &rep); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	found := false
	for _, sp := range rep.Spans {
		if sp.Name == "repro" {
			found = true
			if sp.DurUS < 0 {
				t.Errorf("repro span has negative duration %d", sp.DurUS)
			}
		}
	}
	if !found {
		t.Fatalf("report has no repro root span (spans: %d)", len(rep.Spans))
	}
	if rep.Metrics.Counters == nil {
		t.Fatal("report has no metrics snapshot")
	}

	// The report written above is a regular file, so a path below it
	// cannot be created.
	bad := filepath.Join(path, "telemetry.json")
	if err := run([]string{"-seed", "1", "-exhibit", "table1", "-telemetry", bad}, &buf); !errors.Is(err, syscall.ENOTDIR) {
		t.Fatalf("report path under a regular file: err = %v, want ENOTDIR", err)
	}
}
