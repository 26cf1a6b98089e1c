// Command ode-benchdiff compares the ratios of a fresh `ode-bench -json`
// run against the committed baseline BENCH.json and fails if one
// regressed.
//
// BENCH.json holds one section per gated experiment: the experiment ID,
// the section's threshold with a note on why it has that value, and the
// committed value of every ratio it gates. Absolute throughput varies
// with hardware, so only ratios are gated: each divides two
// measurements taken on the same machine in the same run (e.g.
// snapshot reader q/s over the no-trigger baseline), which cancels the
// hardware term. A fresh ratio below threshold × committed is a
// regression. Sections whose experiment the fresh run did not include
// are skipped, so a CI job can run one experiment and diff against the
// whole file.
//
// Usage:
//
//	ode-benchdiff BENCH.json fresh.json
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"log"
	"os"
	"sort"
)

// section is one gated experiment in BENCH.json.
type section struct {
	Experiment string             `json:"experiment"`
	Threshold  float64            `json:"threshold"`
	Ratios     map[string]float64 `json:"ratios"`
}

func main() {
	log.SetFlags(0)
	if len(os.Args) != 3 {
		log.Fatalf("usage: ode-benchdiff BENCH.json fresh.json")
	}
	var committed map[string]section
	var fresh map[string]map[string]float64
	load(os.Args[1], &committed)
	load(os.Args[2], &fresh)
	checked, ok := diff(os.Stdout, committed, fresh)
	if checked == 0 && ok {
		log.Fatalf("%s covers no experiment gated in %s — nothing checked", os.Args[2], os.Args[1])
	}
	if !ok {
		os.Exit(1)
	}
}

// diff gates every ratio of every section whose experiment appears in
// fresh, writing one line per ratio. It returns how many ratios it
// compared and whether none regressed or went missing.
func diff(w io.Writer, committed map[string]section, fresh map[string]map[string]float64) (checked int, ok bool) {
	ok = true
	for _, name := range sortedKeys(committed) {
		sec := committed[name]
		got, ran := fresh[sec.Experiment]
		if !ran {
			continue
		}
		for _, key := range sortedKeys(sec.Ratios) {
			want := sec.Ratios[key]
			v, present := got[key]
			if !present {
				fmt.Fprintf(w, "MISSING   %s %s %s (committed %.2f, fresh run has no value)\n", name, sec.Experiment, key, want)
				ok = false
				continue
			}
			checked++
			verdict := "ok"
			if v < sec.Threshold*want {
				verdict = "REGRESSED"
				ok = false
			}
			fmt.Fprintf(w, "%-9s %s %s %s: committed %.2f, fresh %.2f, floor %.2f (threshold %.2f)\n",
				verdict, name, sec.Experiment, key, want, v, sec.Threshold*want, sec.Threshold)
		}
	}
	return checked, ok
}

func load(path string, v any) {
	raw, err := os.ReadFile(path)
	if err != nil {
		log.Fatalf("read %s: %v", path, err)
	}
	if err := json.Unmarshal(raw, v); err != nil {
		log.Fatalf("parse %s: %v", path, err)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
