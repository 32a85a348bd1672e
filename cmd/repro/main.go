// Command repro regenerates every table and figure of the paper's
// evaluation in one run (or a selected exhibit), at a configurable scale.
// It runs only the methodology steps the selected exhibits read.
//
//	repro                 # everything, scaled-down defaults
//	repro -exhibit fig10  # one exhibit
//	repro -scale paper    # paper-scale campaign sizes (slow)
package main

//vetsim:instrumented

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"slices"
	"strings"

	"gpufaultsim/internal/campaign"
	"gpufaultsim/internal/cnn"
	"gpufaultsim/internal/errmodel"
	"gpufaultsim/internal/isa"
	"gpufaultsim/internal/mitigate"
	"gpufaultsim/internal/perfi"
	"gpufaultsim/internal/report"
	"gpufaultsim/internal/rtlfi"
	"gpufaultsim/internal/syndrome"
	"gpufaultsim/internal/telemetry"
	"gpufaultsim/internal/workloads"
)

type scale struct {
	patterns    int
	injections  int
	microValues int
	microLanes  int
	tmxmValues  int
	tmxmStride  int
}

// exhibits are the -exhibit values, in the flag's help-text form.
const exhibits = "table1|table2|table3|table4|table5|fig2|fig45|fig6|fig7|fig8|fig9|fig10|fig11|speedup|discussion|mitigation|all"

var scales = map[string]scale{
	"quick":   {patterns: 128, injections: 20, microValues: 1, microLanes: 1, tmxmValues: 1, tmxmStride: 32},
	"default": {patterns: 512, injections: 100, microValues: 2, microLanes: 2, tmxmValues: 2, tmxmStride: 8},
	"paper":   {patterns: 4096, injections: 1000, microValues: 4, microLanes: 4, tmxmValues: 4, tmxmStride: 1},
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("repro: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run is the whole command behind a testable seam: the golden end-to-end
// test drives it with a fixed argument list and locks its output.
func run(args []string, w io.Writer) (err error) {
	fs := flag.NewFlagSet("repro", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "campaign seed")
	exhibit := fs.String("exhibit", "all", exhibits)
	scaleName := fs.String("scale", "default", "quick|default|paper")
	telemetryPath := fs.String("telemetry", "", "write an end-of-run telemetry report (metrics + spans) to this JSON file")
	if err := fs.Parse(args); err != nil {
		return err
	}

	sc, ok := scales[*scaleName]
	if !ok {
		return fmt.Errorf("unknown scale %q", *scaleName)
	}
	if !slices.Contains(strings.Split(exhibits, "|"), *exhibit) {
		return fmt.Errorf("unknown exhibit %q (want %s)", *exhibit, exhibits)
	}
	runSpan := telemetry.StartSpan("repro")
	defer func() {
		runSpan.End()
		if *telemetryPath == "" {
			return
		}
		if werr := telemetry.WriteReportFile(*telemetryPath); werr != nil && err == nil {
			err = fmt.Errorf("telemetry report: %w", werr)
		}
	}()
	want := func(names ...string) bool {
		if *exhibit == "all" {
			return true
		}
		for _, n := range names {
			if n == *exhibit {
				return true
			}
		}
		return false
	}
	section := func(s string) {
		fmt.Fprintln(w, strings.Repeat("=", 72))
		fmt.Fprintln(w, s)
	}

	if want("table1") {
		section("")
		fmt.Fprint(w, report.Table1(cnn.Evaluation15()))
	}

	// RTL study: Figure 2, Figures 4-5, Figure 6, Table 2/Figure 7, Figure 8.
	if want("fig2", "fig45") {
		sp := runSpan.Child("rtl:micro")
		defer sp.End()
		section("")
		mcfg := rtlfi.MicroConfig{Seed: *seed, ValuesPerRange: sc.microValues,
			LanesSampled: sc.microLanes}
		rows, syn := rtlfi.Figure2(mcfg)
		if want("fig2") {
			fmt.Fprint(w, report.Fig2(rows))
			fmt.Fprintln(w)
		}
		if want("fig45") {
			fmt.Fprintln(w, "Figures 4-5 — fault syndrome (relative error) distributions")
			for _, op := range []isa.Opcode{isa.OpFADD, isa.OpFMUL, isa.OpFFMA,
				isa.OpIADD, isa.OpIMUL, isa.OpIMAD} {
				for _, m := range rtlfi.ModulesFor(op) {
					pairs := syn[[2]int{int(op), int(m)}]
					res := rtlfi.RelativeErrors(pairs, op.Unit() == isa.UnitFP32)
					if len(res) == 0 {
						continue
					}
					fmt.Fprint(w, report.SyndromeHistogram(
						fmt.Sprintf("%v / %v", op, m), syndrome.Build(res)))
					if fit, err := syndrome.Fit(res); err == nil {
						_, p, swErr := syndrome.ShapiroWilk(res[:min(len(res), 5000)])
						fmt.Fprintf(w, "  power-law fit: alpha=%.2f xmin=%.3g KS=%.3f",
							fit.Alpha, fit.Xmin, fit.KS)
						if swErr == nil {
							fmt.Fprintf(w, "  Shapiro-Wilk p=%.3g (non-Gaussian: %v)", p, p < 0.05)
						}
						fmt.Fprintln(w)
					}
				}
			}
		}
	}

	if want("fig6", "fig7", "table2", "fig8") {
		sp := runSpan.Child("rtl:tmxm")
		section("")
		st := rtlfi.RunTMxMStudy(rtlfi.TMxMConfig{Seed: *seed,
			ValuesPerTile: sc.tmxmValues, SiteStride: sc.tmxmStride})
		sp.End()
		if want("fig6") {
			fmt.Fprint(w, report.Fig6(st.Rows))
			fmt.Fprintln(w)
		}
		if want("fig7", "table2") {
			fmt.Fprint(w, report.Table2(st))
			fmt.Fprintln(w)
		}
		if want("fig8") {
			fmt.Fprint(w, report.Fig8(st))
		}
	}

	// Two-level methodology: Table 3, Table 4, Table 5, Figure 9, Figures
	// 10-11, speed-up accounting.
	if want("table3", "table4", "table5", "fig9", "fig10", "fig11", "speedup", "discussion") {
		sp := runSpan.Child("exhibits:twolevel")
		section("")
		// The software step is most of a two-level run: unless an exhibit
		// reads it, pass empty (non-nil) apps, which skip it.
		apps := cnn.Evaluation15()
		if !want("fig10", "fig11", "speedup", "discussion") {
			apps = []workloads.Workload{}
		}
		res, err := campaign.RunTwoLevelCtx(context.Background(), campaign.TwoLevelConfig{
			Seed:        *seed,
			MaxPatterns: sc.patterns,
			Injections:  sc.injections,
			EvalApps:    apps,
			Collapse:    true,
		})
		sp.End()
		if err != nil {
			return err
		}
		if want("table3") {
			fmt.Fprint(w, report.Table3(res.Profile))
			fmt.Fprintln(w)
		}
		if want("table4") {
			fmt.Fprint(w, report.Table4(res.Summaries()))
			fmt.Fprintln(w)
		}
		if want("table5") {
			fmt.Fprint(w, report.Table5(res.UnitReports()))
			fmt.Fprintln(w)
		}
		if want("fig9") {
			fmt.Fprint(w, report.Fig9(res.Collectors(), res.FaultTotals()))
			fmt.Fprintln(w)
		}
		if want("fig10") {
			fmt.Fprint(w, report.Fig10(res.Apps, errmodel.Injectable()))
			fmt.Fprintln(w)
		}
		if want("fig11") {
			fmt.Fprint(w, report.Fig11(perfi.Average(res.Apps), errmodel.Injectable()))
			fmt.Fprintln(w)
		}
		if want("speedup") {
			fmt.Fprint(w, res.Timing.Report())
		}
		if want("discussion") {
			fmt.Fprint(w, report.Discussion(report.CorrelateUnits(
				res.Collectors(), res.FaultTotals(), perfi.Average(res.Apps))))
			fmt.Fprintln(w)
		}
	}

	// Extension: the Section-6.3 mitigation proposal, measured.
	if want("mitigation") {
		sp := runSpan.Child("mitigation")
		defer sp.End()
		section("")
		for _, name := range []string{"mxm", "gemm"} {
			dets, err := mitigate.Evaluate(cnn.ByName(name), mitigate.Config{
				Injections: sc.injections / 2, Seed: *seed,
			})
			if err != nil {
				return err
			}
			fmt.Fprintln(w, mitigate.Render(name, dets))
		}
	}
	return nil
}
