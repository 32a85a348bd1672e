package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden repro output")

// Wall-clock readings are the only legitimately nondeterministic bytes in a
// repro run: the seconds columns of the speed-up accounting and the derived
// extrapolation/ratio. Everything else — every table, histogram and
// classification — is a pure function of the seed.
var (
	// The padding before the number is consumed too: %10.3g prints a
	// width that varies with the measured magnitude, and letting it into
	// the masked text would leak the timing back in as spaces.
	timingLineRe = regexp.MustCompile(`^(  (?:profiling|gate-level campaigns|error analysis|software campaigns|total \(two-level\)|gate-level-only est\.))\s+[0-9.eE+-]+ s`)
	speedupRe    = regexp.MustCompile(`\(speed-up [^)]+\)`)
)

func maskTimings(s string) string {
	lines := strings.Split(s, "\n")
	for i, ln := range lines {
		ln = timingLineRe.ReplaceAllString(ln, "${1} <time> s")
		ln = speedupRe.ReplaceAllString(ln, "(speed-up <ratio>)")
		lines[i] = ln
	}
	return strings.Join(lines, "\n")
}

// TestReproGoldenDefault locks the complete default-scale, seed-1 output of
// cmd/repro — every exhibit of the paper — byte-for-byte (timing masked).
// It is the end-to-end determinism gate: any change to the netlists, the
// profiler, either campaign engine, the classifiers or the report layer
// shows up here as a diff that must be reviewed and -update'd consciously.
func TestReproGoldenDefault(t *testing.T) {
	if testing.Short() {
		t.Skip("default-scale campaign takes ~1 min; skipped with -short")
	}
	if raceEnabled {
		t.Skip("skipped under -race; run by the non-race golden step of make verify")
	}

	var buf bytes.Buffer
	if err := run([]string{"-seed", "1"}, &buf); err != nil {
		t.Fatalf("repro run failed: %v", err)
	}
	got := maskTimings(buf.String())

	golden := filepath.Join("testdata", "repro_default_output.txt")
	if *update {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", golden, len(got))
		return
	}
	wantBytes, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with -update): %v", err)
	}
	want := string(wantBytes)
	if got == want {
		return
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(want, "\n")
	n := min(len(gotLines), len(wantLines))
	for i := 0; i < n; i++ {
		if gotLines[i] != wantLines[i] {
			t.Fatalf("output diverges from golden at line %d:\n got: %q\nwant: %q\n(rerun with -update after reviewing the change)",
				i+1, gotLines[i], wantLines[i])
		}
	}
	t.Fatalf("output length diverges from golden: got %d lines, want %d", len(gotLines), len(wantLines))
}

// TestMaskTimings pins the masking itself so a format drift in the speed-up
// report can't silently let real timings into the golden comparison.
func TestMaskTimings(t *testing.T) {
	in := "  profiling                  0.01 s\n" +
		"  gate-level campaigns       1.47 s (22694 faults x 512 patterns)\n" +
		"  gate-level-only est.   5.22e+05 s  (speed-up 1.14e+04x)\n" +
		"  gate-level-only est.    5.2e+05 s  (speed-up 1.14e+04x)\n" +
		"  unrelated 3.14 s\n"
	want := "  profiling <time> s\n" +
		"  gate-level campaigns <time> s (22694 faults x 512 patterns)\n" +
		"  gate-level-only est. <time> s  (speed-up <ratio>)\n" +
		"  gate-level-only est. <time> s  (speed-up <ratio>)\n" +
		"  unrelated 3.14 s\n"
	if got := maskTimings(in); got != want {
		t.Errorf("maskTimings:\n got: %q\nwant: %q", got, want)
	}
}

// TestRootTranscriptMatchesGolden: the checked-in default transcript at the
// repository root is the golden output with its timings unmasked.
func TestRootTranscriptMatchesGolden(t *testing.T) {
	root, err := os.ReadFile(filepath.Join("..", "..", "repro_default_output.txt"))
	if err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile(filepath.Join("testdata", "repro_default_output.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if maskTimings(string(root)) != string(golden) {
		t.Fatal("repro_default_output.txt differs from testdata/repro_default_output.txt beyond its timing lines")
	}
}

// TestExhibitSelectionChangesNoNumber: a single exhibit prints exactly its
// part of the all-exhibits output, although it skips the steps it does not
// read (table3 and table4 skip the software step).
func TestExhibitSelectionChangesNoNumber(t *testing.T) {
	if testing.Short() {
		t.Skip("quick-scale campaigns; skipped with -short")
	}
	if raceEnabled {
		t.Skip("skipped under -race, like the golden test")
	}
	var all bytes.Buffer
	if err := run([]string{"-scale", "quick"}, &all); err != nil {
		t.Fatal(err)
	}
	for _, ex := range []string{"table3", "table4", "fig10"} {
		var one bytes.Buffer
		if err := run([]string{"-scale", "quick", "-exhibit", ex}, &one); err != nil {
			t.Fatalf("%s: %v", ex, err)
		}
		sep := strings.Repeat("=", 72) + "\n\n"
		body, ok := strings.CutPrefix(one.String(), sep)
		if !ok || body == "" {
			t.Fatalf("%s: output is not one section:\n%s", ex, one.String())
		}
		if !strings.Contains(all.String(), body) {
			t.Errorf("%s: output differs from its section of -exhibit all:\n%s", ex, body)
		}
	}
}

// TestUnknownExhibitRejected: a misspelt exhibit is an error naming the
// valid ones, not a silent empty run.
func TestUnknownExhibitRejected(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-exhibit", "tabel4"}, &buf)
	if err == nil || !strings.Contains(err.Error(), exhibits) {
		t.Fatalf("run -exhibit tabel4: err = %v, want one naming %s", err, exhibits)
	}
	if buf.Len() != 0 {
		t.Errorf("run -exhibit tabel4 printed %q", buf.String())
	}
}
