package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

const (
	// selfcheckRuns is the runs per set and workload, as the driver makes:
	// quartile spreads of fewer runs would not compare with the bounds.
	selfcheckRuns = 10
	// maxDisturbedShare is the share of disturbed windows above which the
	// machine is too noisy to judge anything.
	maxDisturbedShare = 0.25
)

// childRun runs this binary once on one workload, as the driver would,
// and returns the metrics of its result object plus the diagnostics it
// printed as metric lines.
func childRun(workload string, seed int64, seconds float64) (map[string]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", "0")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output() // waits for the child to end
	if err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	vals := make(map[string]float64)
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		last = sc.Text()
		if f := strings.Fields(last); len(f) >= 3 && f[0] == "metric" {
			if v, err := strconv.ParseFloat(f[2], 64); err == nil {
				vals[f[1]] = v
			}
		}
	}
	var res struct {
		Correct bool `json:"correct"`
		Failed  int64
		Metrics map[string]struct{ Value float64 }
	}
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return nil, fmt.Errorf("%s seed %d: last line is not a result: %w", workload, seed, err)
	}
	if !res.Correct {
		return nil, fmt.Errorf("%s seed %d: %d operations failed", workload, seed, res.Failed)
	}
	for name, m := range res.Metrics {
		vals[name] = m.Value
	}
	return vals, nil
}

// worsening is how much worse b is than a, as a share of a.
func worsening(def metricDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if def.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// selfCheck judges the benchmark against its own bounds the way the
// driver does: two sets of selfcheckRuns runs of the same binary on every
// workload, each run a process of its own with another seed, workloads
// interleaved. Within a set the
// spread of every end-to-end metric (except setup_s) must stay within
// its bound; between the sets no median may worsen by more than it.
func selfCheck(seed int64, seconds float64) int {
	names := workloadNames()
	// vals[set][workload][metric] holds one value per run.
	var vals [2]map[string]map[string][]float64
	for set := range vals {
		vals[set] = make(map[string]map[string][]float64)
		for i := 0; i < selfcheckRuns; i++ {
			for _, w := range names {
				got, err := childRun(w, seed+int64(i), seconds)
				if err != nil {
					fmt.Fprintf(os.Stderr, "bench: selfcheck: %v\n", err)
					return 1
				}
				if vals[set][w] == nil {
					vals[set][w] = make(map[string][]float64)
				}
				for name, v := range got {
					vals[set][w][name] = append(vals[set][w][name], v)
				}
				fmt.Printf("set %d run %2d %-22s %s\n", set+1, i+1, w, oneLine(got))
			}
		}
	}
	breaches := 0
	fmt.Printf("\n%-22s %-12s %14s %14s %8s %8s %8s %6s\n", "workload", "metric", "median 1", "median 2", "spread1", "spread2", "worse", "bound")
	for _, w := range names {
		for _, def := range endToEnd {
			a, b := vals[0][w][def.Name], vals[1][w][def.Name]
			s1, s2 := spread(a), spread(b)
			worse := worsening(def, median(a), median(b))
			verdict := "ok"
			if worse > def.Bound || def.Name != "setup_s" && (s1 > def.Bound || s2 > def.Bound) {
				verdict = "BREACH"
				breaches++
			}
			fmt.Printf("%-22s %-12s %14.6g %14.6g %7.1f%% %7.1f%% %+7.1f%% %5.0f%% %s\n",
				w, def.Name, median(a), median(b), s1*100, s2*100, worse*100, def.Bound*100, verdict)
		}
		// A reload steals the cores for part of every second by design,
		// so only the static serving workloads can tell a noisy machine.
		for set := range vals {
			if w != wlFleetFrameMixed && w != wlReplicaFrameDirect {
				break
			}
			if d := median(vals[set][w]["bench.disturbed_window_share"]); d > maxDisturbedShare {
				fmt.Printf("%-22s set %d: %.0f%% of windows disturbed: machine too noisy to judge\n", w, set+1, d*100)
				breaches++
			}
		}
	}
	if breaches > 0 {
		fmt.Printf("selfcheck: %d breaches\n", breaches)
		return 1
	}
	fmt.Println("selfcheck: every metric of every workload within its bound")
	return 0
}

func oneLine(vals map[string]float64) string {
	var b strings.Builder
	for _, def := range endToEnd {
		fmt.Fprintf(&b, "%s=%.6g ", def.Name, vals[def.Name])
	}
	return b.String()
}
