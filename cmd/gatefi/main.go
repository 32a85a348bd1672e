// Command gatefi runs steps 2-3 of the methodology: exhaustive gate-level
// stuck-at fault injection campaigns on the WSC, fetch and decoder units,
// classifying every fault and mapping corruptions to the 13 instruction-
// level error models (paper Tables 4 and 5, Figure 9).
package main

//vetsim:instrumented

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"

	"gpufaultsim/internal/artifact"

	"gpufaultsim/internal/campaign"
	"gpufaultsim/internal/errclass"
	"gpufaultsim/internal/gatesim"
	"gpufaultsim/internal/profiler"
	"gpufaultsim/internal/report"
	"gpufaultsim/internal/telemetry"
	"gpufaultsim/internal/units"
	"gpufaultsim/internal/workloads"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("gatefi: ")
	seed := flag.Int64("seed", 1, "campaign seed")
	maxPatterns := flag.Int("patterns", 512, "exciting patterns per unit campaign")
	unitName := flag.String("unit", "all", "unit to inject: wsc, fetch, decoder, all")
	workers := flag.Int("workers", 0, "intra-campaign fault-batch workers per unit campaign (0 = GOMAXPROCS, 1 = serial); selected units additionally run concurrently, so this knob scales a single campaign instead of capping out at the 3 runnable units")
	jsonPath := flag.String("json", "", "also write a JSON artifact per unit to <path>_<unit>.json")
	telemetryPath := flag.String("telemetry", "", "write an end-of-run telemetry report (metrics + spans) to this JSON file")
	flag.Parse()

	runSpan := telemetry.StartSpan("gatefi")

	profSpan := runSpan.Child("profile")
	prof, err := profiler.Collect(workloads.Profiling(), profiler.Config{
		Seed: *seed, MaxPatterns: *maxPatterns,
	})
	profSpan.End()
	if err != nil {
		log.Fatal(err)
	}
	patterns := prof.TopPatterns(*maxPatterns)
	fmt.Printf("driving %d exciting patterns (from %d dynamic instructions)\n\n",
		len(patterns), prof.DynInstrs)

	var targets []*units.Unit
	for _, u := range units.All() {
		if *unitName == "all" || u.Name == *unitName {
			targets = append(targets, u)
		}
	}
	if len(targets) == 0 {
		log.Fatalf("unknown unit %q", *unitName)
	}

	tm := telemetry.StartTimer(nil)
	// -workers feeds the intra-campaign fault-batch pool; the unit fan-out
	// always runs every selected unit concurrently (at most 3). The only
	// error is ctx.Err(), and this context is never canceled.
	outs, _ := campaign.ParallelMapCtx(context.Background(), targets, 0, func(u *units.Unit) *campaign.UnitOutcome {
		sp := runSpan.Child("gate:" + u.Name)
		defer sp.End()
		return campaign.GateStep(u, patterns, true, gatesim.EngineEvent, *workers)
	})
	fmt.Printf("campaigns finished in %.2fs\n\n", tm.Stop())

	var sums []*gatesim.Summary
	var reports []*errclass.UnitReport
	cols := map[string]*errclass.Collector{}
	totals := map[string]int{}
	for i, u := range targets {
		fmt.Println(u.NL.Stats())
		sums = append(sums, outs[i].Summary)
		reports = append(reports, outs[i].Report)
		cols[u.Name] = outs[i].Collector
		totals[u.Name] = u.NL.NumFaults()
		fmt.Printf("  multi-model faults: %d\n", outs[i].Collector.MultiModelFaults())
		s := outs[i].Summary
		fmt.Printf("  collapsed: simulated %d of %d fault sites (%.1f%% fewer)\n",
			s.SimulatedSites, s.TotalSites,
			100*(1-float64(s.SimulatedSites)/float64(s.TotalSites)))
		if *jsonPath != "" {
			path := fmt.Sprintf("%s_%s.json", *jsonPath, u.Name)
			f, err := os.Create(path)
			if err != nil {
				log.Fatal(err)
			}
			if err := artifact.Write(f, artifact.NewGateReport(*seed, outs[i].Summary, outs[i].Collector)); err != nil {
				log.Fatal(err)
			}
			f.Close()
			fmt.Printf("  artifact: %s\n", path)
		}
	}
	fmt.Println()
	fmt.Print(report.Table4(sums))
	fmt.Println()
	fmt.Print(report.Table5(reports))
	fmt.Println()
	fmt.Print(report.Fig9(cols, totals))

	runSpan.End()
	if *telemetryPath != "" {
		if err := telemetry.WriteReportFile(*telemetryPath); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\ntelemetry report: %s\n", *telemetryPath)
	}
}
