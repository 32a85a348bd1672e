// Command perfi runs steps 4-5 of the methodology: software-level
// permanent-error injection (the NVBitPERfi analog) over the evaluation
// applications, reporting per-application and average Error Propagation
// Rates (paper Figures 10 and 11).
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"gpufaultsim/internal/artifact"

	"gpufaultsim/internal/campaign"
	"gpufaultsim/internal/cnn"
	"gpufaultsim/internal/errmodel"
	"gpufaultsim/internal/perfi"
	"gpufaultsim/internal/report"
	"gpufaultsim/internal/workloads"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("perfi: ")
	seed := flag.Int64("seed", 1, "campaign seed")
	injections := flag.Int("injections", 100, "injections per app per error model (paper: 1000)")
	appsFlag := flag.String("apps", "all", "comma-separated app names, or 'all' (Table 1's 15)")
	modelsFlag := flag.String("models", "", "comma-separated error models (default: the 11 injectable)")
	workers := flag.Int("workers", 0, "parallel workers (0 = GOMAXPROCS)")
	jsonPath := flag.String("json", "", "also write a JSON artifact to this path")
	flag.Parse()

	var apps []workloads.Workload
	if *appsFlag == "all" {
		apps = cnn.Evaluation15()
	} else {
		all := cnn.Evaluation15()
		byName := map[string]workloads.Workload{}
		for _, w := range all {
			byName[w.Name()] = w
		}
		for _, name := range strings.Split(*appsFlag, ",") {
			w, ok := byName[strings.TrimSpace(name)]
			if !ok {
				log.Fatalf("unknown app %q", name)
			}
			apps = append(apps, w)
		}
	}

	models := errmodel.Injectable()
	if *modelsFlag != "" {
		models = nil
		for _, name := range strings.Split(*modelsFlag, ",") {
			m, err := errmodel.ParseModel(strings.TrimSpace(name))
			if err != nil {
				log.Fatal(err)
			}
			models = append(models, m)
		}
	}

	cfg := perfi.Config{Injections: *injections, Seed: *seed, Models: models}
	fmt.Printf("injecting %d errors x %d models x %d applications\n",
		*injections, len(models), len(apps))
	start := time.Now()
	results, err := campaign.RunSuiteParallelCtx(context.Background(), apps, cfg, *workers)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("campaign finished in %.2fs\n\n", time.Since(start).Seconds())

	fmt.Print(report.Fig10(results, models))
	fmt.Println()
	fmt.Print(report.Fig11(perfi.Average(results), models))

	if *jsonPath != "" {
		f, err := os.Create(*jsonPath)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if err := artifact.Write(f, artifact.NewSoftwareReport(*seed, *injections, results)); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nartifact: %s\n", *jsonPath)
	}
}
