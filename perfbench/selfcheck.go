package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// benchmarkSpec is the part of BENCHMARK.json the self-check reads.
type benchmarkSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// selfCheck runs every workload of BENCHMARK.json back to back, runs
// times each with seeds o.seed, o.seed+1, ..., and prints per metric the
// median, the quartile spread as a share of the median, and the metric's
// bound. A spread at or above a third of its bound is flagged.
func selfCheck(o options, runs int) error {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	if runs < 2 {
		return fmt.Errorf("--runs %d: need at least 2 for a spread", runs)
	}
	for _, w := range spec.Workloads {
		values := map[string][]float64{}
		bad := 0
		for i := 0; i < runs; i++ {
			seed := strconv.FormatUint(o.seed+uint64(i), 10)
			cmd := exec.Command(self, "--workload", w.Name, "--seed", seed,
				"--seconds", strconv.Itoa(spec.RunSeconds), "--trace", "0",
				"--bin", o.bin, "--work", o.work, "--traces", o.traces)
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s seed %s: %w", w.Name, seed, err)
			}
			var res resultJSON
			if err := json.Unmarshal(lastLine(out), &res); err != nil {
				return fmt.Errorf("%s seed %s: result line: %w", w.Name, seed, err)
			}
			if !res.Correct {
				bad++
			}
			fmt.Fprintf(os.Stderr, "selfcheck %s seed %s: %s\n", w.Name, seed, lastLine(out))
			for name, m := range res.Metrics {
				values[name] = append(values[name], m.Value)
			}
		}
		fmt.Printf("\n%s: %d runs, %d incorrect\n", w.Name, runs, bad)
		fmt.Printf("%-16s %12s %9s %7s  %s\n", "metric", "median", "spread", "bound", "")
		for _, m := range spec.EndToEnd {
			vs := values[m.Name]
			if len(vs) == 0 {
				fmt.Printf("%-16s missing\n", m.Name)
				continue
			}
			med := median(vs)
			q1, q3 := quartiles(vs)
			spread := (q3 - q1) / med
			flag := "ok"
			if m.Name == "setup_s" {
				flag = "ok (spread not bounded)"
			} else if spread >= m.Bound/3 {
				flag = "UNSTEADY (>= bound/3)"
			}
			fmt.Printf("%-16s %12.6g %8.2f%% %6.0f%%  %s\n", m.Name, med, 100*spread, 100*m.Bound, flag)
		}
		var extra []string
		for name := range values {
			extra = append(extra, name)
		}
		sort.Strings(extra)
		fmt.Printf("metrics reported: %v\n", extra)
	}
	return nil
}
