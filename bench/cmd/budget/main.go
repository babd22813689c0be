// Command budget renders bench/BUDGET.md from the budget files the traced
// runs leave in bench/out:
//
//	for w in get-hot get-cold scan-range ingest served-mix; do
//	    go run ./bench -workload $w -seed 1 -seconds 15 -trace 1
//	done
//	go run ./bench/cmd/budget -note "<commit, box>" > bench/BUDGET.md
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// budgetFile mirrors the budget type package bench writes.
type budgetFile struct {
	Workload  string  `json:"workload"`
	Op        string  `json:"op"`
	Seed      uint64  `json:"seed"`
	Seconds   float64 `json:"seconds"`
	OpUs      float64 `json:"op_us"`
	OpAllocs  float64 `json:"op_allocs"`
	GoVersion string  `json:"go_version"`
	CPUs      int     `json:"cpus"`
	Procs     int     `json:"gomaxprocs"`
	Rows      []struct {
		Layer       string  `json:"layer"`
		Us          float64 `json:"us"`
		Allocs      float64 `json:"allocs"`
		PagesRead   float64 `json:"pages_read"`
		PagesSealed float64 `json:"pages_sealed"`
		Residual    bool    `json:"residual"`
		Note        string  `json:"note"`
	} `json:"rows"`
}

func main() {
	dir := flag.String("dir", filepath.Join("bench", "out"), "directory holding the budget-<workload>.json files")
	note := flag.String("note", "", "provenance to print: commit and box")
	flag.Parse()
	if err := render(*dir, *note); err != nil {
		fmt.Fprintln(os.Stderr, "budget:", err)
		os.Exit(1)
	}
}

func render(dir, note string) error {
	fmt.Println("# Layer budget")
	fmt.Println()
	fmt.Println("One op of each workload, split across the repository's layers. Generated by")
	fmt.Println("`go run ./bench/cmd/budget` from the traced runs' `bench/out/budget-*.json`;")
	fmt.Println("do not edit by hand. README.md says how each figure is taken.")
	fmt.Println()
	fmt.Printf("Provenance: %s; rendered %s.\n", note, time.Now().UTC().Format("2006-01-02"))
	fmt.Println()
	fmt.Println("Rows marked *residual* are the end-to-end figure less every measured row:")
	fmt.Println("time nothing outside the engine (or the server) can put a clock on. Every")
	fmt.Println("other row is measured on its own — by a decorator around the layer's calls,")
	fmt.Println("or by replaying the layer alone on the workload's keys and pages — so")
	fmt.Println("\"measured\" against \"end to end\" is a real check, and the residual's share is")
	fmt.Println("`facade.budget_gap_frac`. Latencies are this sandbox's page-cache and")
	fmt.Println("virtual-disk figures, not a device's.")
	for _, w := range []string{"get-hot", "get-cold", "scan-range", "ingest", "served-mix"} {
		raw, err := os.ReadFile(filepath.Join(dir, "budget-"+w+".json"))
		if err != nil {
			return fmt.Errorf("%w (run the traced %s workload first)", err, w)
		}
		var b budgetFile
		if err := json.Unmarshal(raw, &b); err != nil {
			return fmt.Errorf("budget-%s.json: %w", w, err)
		}
		fmt.Println()
		fmt.Printf("## %s\n\n", b.Workload)
		fmt.Printf("One op: %s. Seed %d, -seconds %g, %s, GOMAXPROCS %d of %d CPUs.\n\n", b.Op, b.Seed, b.Seconds, b.GoVersion, b.Procs, b.CPUs)
		fmt.Println("| layer | µs | share | allocs | pages read | pages sealed | how |")
		fmt.Println("|---|---:|---:|---:|---:|---:|---|")
		var measuredUs, measuredAllocs float64
		for _, r := range b.Rows {
			layer := r.Layer
			if r.Residual {
				layer += " *(residual)*"
			} else {
				measuredUs += r.Us
				measuredAllocs += r.Allocs
			}
			fmt.Printf("| %s | %.3f | %.1f%% | %.2f | %.3f | %.3f | %s |\n",
				layer, r.Us, 100*r.Us/b.OpUs, r.Allocs, r.PagesRead, r.PagesSealed, r.Note)
		}
		fmt.Printf("| **measured** | %.3f | %.1f%% | %.2f | | | sum of the rows that are not residual |\n", measuredUs, 100*measuredUs/b.OpUs, measuredAllocs)
		fmt.Printf("| **end to end** | %.3f | 100%% | %.2f | | | quiet-window mean op time of the traced tree (of the served phase, on served-mix); allocations of the plain tree |\n", b.OpUs, b.OpAllocs)
	}
	return nil
}
