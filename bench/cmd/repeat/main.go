// Command repeat runs the benchmark as two sets, A then B, and says whether
// they agree within the bounds BENCHMARK.json fixes.
//
//	go run ./bench/cmd/repeat                      # the same code twice
//	go run ./bench/cmd/repeat -a ../parent -b .    # a parent and a change
//
// Each set is -runs rounds of every workload in turn, round r with seed
// -seed + r on both sides. The sets run one after the other on purpose: the box's speed drifts
// over minutes, and a benchmark that cannot ride that drift out between two
// sets of the same code cannot judge a change either. For every workload and
// end-to-end metric it prints both sets' medians and quartiles, each set's
// spread (interquartile range over median) and the gap between the medians,
// then PASS or FAIL; it exits non-zero on any FAIL.
//
// With one directory on both sides it checks the benchmark itself: the gap
// must be within the bound in either direction, and so must each spread
// (except setup_s's). With two directories it checks a change: B must not be
// worse than A by more than the bound.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
)

// manifest is the part of BENCHMARK.json this tool reads.
type manifest struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runResult is the last line a benchmark run prints.
type runResult struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

func main() {
	dirA := flag.String("a", ".", "checkout of set A (the parent)")
	dirB := flag.String("b", ".", "checkout of set B (the change)")
	runs := flag.Int("runs", 5, "runs of every workload per set")
	seed := flag.Uint64("seed", 1, "seed of each set's first run; run r uses seed+r")
	flag.Parse()
	ok, err := realMain(*dirA, *dirB, *runs, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "repeat:", err)
		os.Exit(2)
	}
	if !ok {
		os.Exit(1)
	}
}

func realMain(dirA, dirB string, runs int, seed uint64) (bool, error) {
	if runs < 2 {
		return false, errors.New("-runs must be at least 2")
	}
	raw, err := os.ReadFile(filepath.Join(dirB, "BENCHMARK.json"))
	if err != nil {
		return false, err
	}
	var mf manifest
	if err := json.Unmarshal(raw, &mf); err != nil {
		return false, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	// The run length is the benchmark's own, the same on both sides.
	seconds := mf.RunSeconds
	var workloads []string
	for _, w := range mf.Workloads {
		workloads = append(workloads, w.Name)
	}
	absA, err := filepath.Abs(dirA)
	if err != nil {
		return false, err
	}
	absB, err := filepath.Abs(dirB)
	if err != nil {
		return false, err
	}
	same := absA == absB

	// sets[side][workload][metric] = one value per run
	var sets [2]map[string]map[string][]float64
	for side, dir := range []string{absA, absB} {
		bin, err := build(dir)
		if err != nil {
			return false, err
		}
		sets[side] = make(map[string]map[string][]float64)
		for _, w := range workloads {
			sets[side][w] = make(map[string][]float64)
		}
		// Run r of every workload, then run r+1: a workload's runs span the
		// whole set, so a sag of a few minutes is an outlier in each
		// workload's sample and not one workload's median.
		for r := 0; r < runs; r++ {
			for _, w := range workloads {
				res, err := runOnce(dir, bin, w, seed+uint64(r), seconds)
				if err != nil {
					return false, fmt.Errorf("set %c, %s, run %d: %w", 'A'+side, w, r, err)
				}
				if !res.Correct || res.Failed != 0 {
					return false, fmt.Errorf("set %c, %s, run %d: incorrect run (%d of %d ops failed)", 'A'+side, w, r, res.Failed, res.Attempted)
				}
				for name, m := range res.Metrics {
					sets[side][w][name] = append(sets[side][w][name], m.Value)
				}
				fmt.Fprintf(os.Stderr, "set %c %s run %d/%d:", 'A'+side, w, r+1, runs)
				for _, m := range mf.EndToEnd {
					fmt.Fprintf(os.Stderr, " %s=%s", m.Name, num(res.Metrics[m.Name].Value))
				}
				fmt.Fprintln(os.Stderr)
			}
		}
	}

	allPass := true
	fmt.Printf("%-11s %-19s %12s %25s %7s %12s %25s %7s %8s %6s  %s\n",
		"workload", "metric", "A median", "A q1..q3", "A sprd", "B median", "B q1..q3", "B sprd", "gap", "bound", "")
	for _, w := range workloads {
		for _, m := range mf.EndToEnd {
			a, b := summarise(sets[0][w][m.Name]), summarise(sets[1][w][m.Name])
			// gap > 0 means B is worse than A.
			gap := (b.median - a.median) / a.median
			if m.Better == "higher" {
				gap = -gap
			}
			pass := gap <= m.Bound
			if same {
				pass = pass && -gap <= m.Bound
				if m.Name != "setup_s" {
					pass = pass && a.spread <= m.Bound && b.spread <= m.Bound
				}
			}
			verdict := "PASS"
			if !pass {
				verdict, allPass = "FAIL", false
			}
			fmt.Printf("%-11s %-19s %12s %25s %6.1f%% %12s %25s %6.1f%% %+7.1f%% %5.0f%%  %s\n",
				w, m.Name, num(a.median), num(a.q1)+".."+num(a.q3), 100*a.spread,
				num(b.median), num(b.q1)+".."+num(b.q3), 100*b.spread, 100*gap, 100*m.Bound, verdict)
		}
	}
	return allPass, nil
}

// build compiles the benchmark of one checkout into its bench/out.
func build(dir string) (string, error) {
	bin := filepath.Join(dir, "bench", "out", "bench-bin")
	cmd := exec.Command("go", "build", "-o", bin, "./bench")
	cmd.Dir = dir
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./bench in %s: %v\n%s", dir, err, out)
	}
	return bin, nil
}

func runOnce(dir, bin, workload string, seed uint64, seconds int) (runResult, error) {
	var res runResult
	cmd := exec.Command(bin, "-workload", workload, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.Itoa(seconds), "-trace", "0")
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return res, err
	}
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	if err := json.Unmarshal(last, &res); err != nil {
		return res, fmt.Errorf("last line is not a result: %w", err)
	}
	return res, nil
}

type summary struct{ median, q1, q3, spread float64 }

// summarise takes the quartiles the way Python's statistics.quantiles(v, n=4)
// does (the exclusive method), which is how the benchmark's acceptance check
// takes them, and the spread as their distance over the median.
func summarise(v []float64) summary {
	s := slices.Clone(v)
	slices.Sort(s)
	q := func(i int) float64 {
		m := len(s)
		j := min(max(i*(m+1)/4, 1), m-1)
		delta := i*(m+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	out := summary{median: q(2), q1: q(1), q3: q(3)}
	out.spread = (out.q3 - out.q1) / out.median
	return out
}

func num(v float64) string { return strconv.FormatFloat(v, 'g', 5, 64) }
