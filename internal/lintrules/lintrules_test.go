package lintrules

import (
	"strings"
	"testing"
)

func TestDeterminismAnalyzer(t *testing.T) { runAnalyzerTest(t, Determinism, "determinism") }
func TestCacheKeyAnalyzer(t *testing.T)    { runAnalyzerTest(t, CacheKey, "cachekey") }
func TestTelemetryAnalyzer(t *testing.T)   { runAnalyzerTest(t, Telemetry, "telemetrylint") }
func TestHotPathAnalyzer(t *testing.T)     { runAnalyzerTest(t, HotPath, "hotpath") }

// TestCacheKeyFlagsUnhashedSpecField is the acceptance check for the
// analyzer's reason to exist: a Spec-like struct gaining a field that no
// key material hashes must produce a diagnostic naming the field.
func TestCacheKeyFlagsUnhashedSpecField(t *testing.T) {
	diags := runAnalyzerTest(t, CacheKey, "cachekey")
	for _, d := range diags {
		if d.Rule == "cachekey" && strings.Contains(d.Message, "Spec.Burst") {
			return
		}
	}
	t.Fatalf("cachekey did not flag the unhashed Spec.Burst field; diagnostics: %v", diags)
}

func TestParseDirective(t *testing.T) {
	cases := []struct {
		text               string
		ok                 bool
		kind, rule, reason string
	}{
		{"//vetsim:deterministic", true, "deterministic", "", ""},
		{"//vetsim:hotpath", true, "hotpath", "", ""},
		{"//vetsim:ignore determinism status-only timestamp", true, "ignore", "determinism", "status-only timestamp"},
		{"//vetsim:ignore determinism", true, "ignore", "determinism", ""},
		{"// vetsim:ignore determinism spaced form is prose", false, "", "", ""},
		{"// plain comment", false, "", "", ""},
	}
	for _, c := range cases {
		d, ok := parseDirective(c.text)
		if ok != c.ok {
			t.Errorf("parseDirective(%q) ok = %v, want %v", c.text, ok, c.ok)
			continue
		}
		if ok && (d.Kind != c.kind || d.Rule != c.rule || d.Reason != c.reason) {
			t.Errorf("parseDirective(%q) = %+v, want kind=%q rule=%q reason=%q", c.text, d, c.kind, c.rule, c.reason)
		}
	}
}

// TestReasonlessIgnoreDoesNotSuppress pins the suppression policy: an
// ignore without a reason is inert (and flagged by checkDirectives).
func TestReasonlessIgnoreDoesNotSuppress(t *testing.T) {
	pkg, err := loadDir("testdata/src/determinism")
	if err != nil {
		t.Fatal(err)
	}
	var diags []Diagnostic
	pass := &Pass{
		Analyzer:   Determinism,
		Fset:       pkg.Fset,
		Files:      pkg.Files,
		Pkg:        pkg.Pkg,
		Info:       pkg.Info,
		directives: scanDirectives(pkg.Fset, pkg.Files),
		diags:      &diags,
	}
	if pass.suppressed(pkg.Fset.Position(pkg.Files[0].Pos())) {
		t.Fatal("position with no directive reported as suppressed")
	}
}
