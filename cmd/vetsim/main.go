// Command vetsim runs the repository's invariant analyzers — the
// determinism, cachekey, telemetry and hotpath rules in
// internal/lintrules — over the packages matched by the given go-list
// patterns (default ./...). Diagnostics print one per line as
//
//	path:line:col: [rule] message
//
// with the path relative to the working directory, as go vet prints it,
// and any finding makes the process exit 1, so `make verify` and CI can
// gate on a clean tree. Suppress an individual finding with
// `//vetsim:ignore <rule> <reason>` on (or directly above) the flagged
// line; a reasonless suppression is itself a finding.
//
// Usage:
//
//	go run ./cmd/vetsim ./...
//	go run ./cmd/vetsim -list
//	go run ./cmd/vetsim ./internal/jobs
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"gpufaultsim/internal/lintrules"
)

func main() {
	list := flag.Bool("list", false, "list the analyzers and exit")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: vetsim [-list] [package patterns]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range lintrules.All() {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	wd, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	pkgs, err := lintrules.Load(patterns)
	if err != nil {
		fatal(err)
	}
	diags, err := lintrules.RunAnalyzers(pkgs, lintrules.All())
	if err != nil {
		fatal(err)
	}

	for _, d := range diags {
		pos := d.Pos
		if rel, err := filepath.Rel(wd, pos.Filename); err == nil && filepath.IsAbs(pos.Filename) {
			pos.Filename = rel
		}
		fmt.Printf("%s:%d:%d: [%s] %s\n", pos.Filename, pos.Line, pos.Column, d.Rule, d.Message)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "vetsim: %d finding(s) in %d package(s)\n", len(diags), len(pkgs))
		os.Exit(1)
	}
	fmt.Printf("vetsim: %d package(s) clean\n", len(pkgs))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "vetsim:", err)
	os.Exit(2)
}
