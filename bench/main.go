// Command bench is the repository's benchmark: five workloads over the
// enciphered B-tree, each run printing the end-to-end metrics (or, with
// -trace 1, the per-layer metrics) as one JSON object on the last line of
// standard output. BENCHMARK.json at the repository root names the workloads
// and metrics, and the program reads the metric lists from it; README.md in
// this directory defines them.
//
//	go run ./bench -workload get-hot -seed 1 -seconds 12 -trace 0
//
// Run it from the repository root. Everything it writes goes under
// bench/out/, which is not committed.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// modulePath is the go.mod line that marks the checkout's root.
const modulePath = "module github.com/paper-repro/ekbtree"

func main() {
	workload := flag.String("workload", "", "workload to run: "+strings.Join(specNames(), ", "))
	seed := flag.Uint64("seed", 1, "seed every key, value and op order derives from")
	seconds := flag.Float64("seconds", 12, "run length the frozen op rates are multiplied by; ops are counted, never timed out")
	trace := flag.Int("trace", 0, "1 runs with decorated layers and reports the per-layer metrics instead of the end-to-end ones")
	smoke := flag.Bool("smoke", false, "shrink the data about 200-fold and run a fraction of a second; with no -workload, run every workload both ways")
	flag.Parse()
	if err := realMain(*workload, *seed, *seconds, *trace != 0, *smoke); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func specNames() []string {
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.name
	}
	return names
}

func realMain(workload string, seed uint64, seconds float64, trace, smoke bool) error {
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", flag.Arg(0))
	}
	if seconds <= 0 {
		return errors.New("-seconds must be positive")
	}
	root, err := findRoot()
	if err != nil {
		return err
	}
	mf, err := readManifest(root)
	if err != nil {
		return err
	}
	outDir := filepath.Join(root, "bench", "out")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	// Two procs at most: the box the bounds were set on has two cores, and a
	// run must not change shape on a bigger one.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))

	if smoke && workload == "" {
		for _, sp := range specs {
			for _, tr := range []bool{false, true} {
				if err := runOne(sp, seed, smokeSeconds, tr, true, mf, root, outDir); err != nil {
					return fmt.Errorf("%s (trace %v): %w", sp.name, tr, err)
				}
			}
		}
		return nil
	}
	sp, ok := findSpec(workload)
	if !ok {
		return fmt.Errorf("unknown -workload %q (want one of %s)", workload, strings.Join(specNames(), ", "))
	}
	if smoke {
		seconds = smokeSeconds
	}
	return runOne(sp, seed, seconds, trace, smoke, mf, root, outDir)
}

// smokeSeconds is the run length of a -smoke run.
const smokeSeconds = 0.05

func runOne(sp spec, seed uint64, seconds float64, trace, smoke bool, mf manifest, root, outDir string) error {
	if smoke {
		sp = sp.smoke()
	}
	res, err := run(runConfig{
		sp: sp, seed: seed, seconds: seconds, trace: trace, smoke: smoke,
		mf: mf, root: root, outDir: outDir, log: os.Stdout,
	})
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(line))
	return err
}

// findRoot walks up from the working directory to the checkout's go.mod.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		raw, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(string(raw), modulePath) {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("not inside the ekbtree checkout: no go.mod for " + strings.TrimPrefix(modulePath, "module "))
		}
		dir = parent
	}
}
