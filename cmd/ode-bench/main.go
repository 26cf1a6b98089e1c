// Command ode-bench runs the full reproduction experiment suite E1–E25
// (see DESIGN.md for the catalogue and EXPERIMENTS.md for recorded
// results) and prints one paper-shaped table per experiment, followed by
// a pass/fail summary against the paper's predicted shapes.
//
// With -json FILE it also writes the ratios each experiment gates, as
// {"E23": {"ratio/rtt1ms/binary": 14.2, ...}, ...}; `ode-benchdiff
// BENCH.json FILE` compares them with the committed baseline.
//
// Usage:
//
//	ode-bench [-quick] [-only E5,E8] [-json FILE]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"ode/internal/experiments"
)

func main() {
	log.SetFlags(0)
	quick := flag.Bool("quick", false, "reduced iteration counts")
	only := flag.String("only", "", "comma-separated experiment IDs (e.g. E2,E5); empty runs all")
	jsonOut := flag.String("json", "", "write each experiment's gated ratios to this file")
	flag.Parse()

	r := &experiments.Runner{
		W:   os.Stdout,
		Cfg: experiments.Config{Quick: *quick},
	}
	var results []experiments.Result
	if *only == "" {
		results = r.RunAll()
	} else {
		for _, id := range strings.Split(*only, ",") {
			id = strings.TrimSpace(strings.ToUpper(id))
			res, ok := r.Run(id)
			if !ok {
				log.Fatalf("unknown experiment %q (valid: %s)", id, strings.Join(experiments.IDs(), ", "))
			}
			verdict := "ok"
			if !res.Passed {
				verdict = "FAIL"
			}
			fmt.Printf("-> %s %s: %s\n\n", res.ID, verdict, res.Summary)
			results = append(results, res)
		}
	}

	if *jsonOut != "" {
		metrics := map[string]map[string]float64{}
		for _, res := range results {
			if len(res.Metrics) > 0 {
				metrics[res.ID] = res.Metrics
			}
		}
		raw, err := json.MarshalIndent(metrics, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(*jsonOut, append(raw, '\n'), 0o644); err != nil {
			log.Fatal(err)
		}
	}
	for _, res := range results {
		if !res.Passed {
			os.Exit(1)
		}
	}
}
