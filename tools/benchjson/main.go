// Command benchjson converts `go test -bench` output on stdin into a
// machine-readable JSON document on stdout, so benchmark trajectories
// (BENCH_sim.json) can be diffed and plotted across PRs. Next to the raw
// samples the document carries a summary per (benchmark, unit): the best
// sample and the spread of all samples, so a reader can tell a real move
// from scheduler noise.
//
// Usage:
//
//	go test -run '^$' -bench ... . | go run ./tools/benchjson > BENCH_sim.json
//
// With -compare it doubles as a regression gate: the fresh document is
// still written to stdout, but every gated metric a benchmark reports is
// also checked against the baseline document, and the process exits
// nonzero when any got worse by more than -tolerance. Gated are the
// higher-is-better throughputs — "MIPS", or any rate unit ending in "/s"
// (e.g. the sweep benchmark's "cells/s") — and the lower-is-better times
// "ns/op" and "ms":
//
//	go test -bench ... . | go run ./tools/benchjson \
//	    -compare BENCH_sim.json -tolerance 0.25 > fresh.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Benchmark is one parsed benchmark result line.
type Benchmark struct {
	Name    string             `json:"name"`
	Iters   int64              `json:"iters"`
	NsPerOp float64            `json:"ns_per_op"`
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Document is the emitted trajectory file.
type Document struct {
	Goos       string      `json:"goos,omitempty"`
	Goarch     string      `json:"goarch,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Package    string      `json:"pkg,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
	Summary    []Summary   `json:"summary,omitempty"`
}

// Summary condenses every sample of one gated (benchmark, unit) pair:
// the best sample, which the gate scores, and the samples' spread.
type Summary struct {
	Name    string  `json:"name"`
	Unit    string  `json:"unit"`
	Better  string  `json:"better"` // "higher" or "lower"
	Samples int     `json:"samples"`
	Best    float64 `json:"best"`
	Spread  float64 `json:"spread"` // (max - min) / best
}

func main() {
	compare := flag.String("compare", "", "baseline JSON document to gate metrics against")
	tolerance := flag.Float64("tolerance", 0.25, "allowed fractional regression vs the baseline")
	flag.Parse()

	doc, err := parseBenchOutput(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if *compare == "" {
		return
	}
	baseline, err := loadDocument(*compare)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	lines, failed := compareThroughput(baseline, doc, *tolerance)
	for _, l := range lines {
		fmt.Fprintln(os.Stderr, "benchjson:", l)
	}
	if failed {
		fmt.Fprintf(os.Stderr, "benchjson: FAIL: regression beyond %.0f%% tolerance vs %s\n",
			*tolerance*100, *compare)
		os.Exit(1)
	}
}

// parseBenchOutput converts a `go test -bench` transcript into a Document.
func parseBenchOutput(r io.Reader) (Document, error) {
	doc := Document{Benchmarks: []Benchmark{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos: "):
			doc.Goos = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			doc.Goarch = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "cpu: "):
			doc.CPU = strings.TrimPrefix(line, "cpu: ")
		case strings.HasPrefix(line, "pkg: "):
			doc.Package = strings.TrimPrefix(line, "pkg: ")
		case strings.HasPrefix(line, "Benchmark"):
			if b, ok := parseBench(line); ok {
				doc.Benchmarks = append(doc.Benchmarks, b)
			}
		}
	}
	doc.Summary = summarize(doc)
	return doc, sc.Err()
}

// loadDocument reads a previously emitted JSON trajectory.
func loadDocument(path string) (Document, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Document{}, err
	}
	var doc Document
	if err := json.Unmarshal(data, &doc); err != nil {
		return Document{}, fmt.Errorf("%s: %w", path, err)
	}
	return doc, nil
}

// direction reports how a metric unit is gated: "higher" for the
// higher-is-better throughputs ("MIPS", the historical spelling, or any
// rate unit ending in "/s": "cells/s", "reports/s", ...), "lower" for the
// lower-is-better times ("ns/op", "ms"), and "" for units the gate leaves
// informational (counters and physical quantities such as "train-emus" or
// "nJ-saved-64to8").
func direction(unit string) string {
	switch {
	case unit == "MIPS" || strings.HasSuffix(unit, "/s"):
		return "higher"
	case unit == "ns/op" || unit == "ms":
		return "lower"
	}
	return ""
}

// summarize condenses every gated (benchmark, unit) pair of doc — each
// metric with a direction, and ns/op when recorded — in order of first
// appearance, units sorted within a benchmark.
func summarize(doc Document) []Summary {
	var keys []string
	vals := map[string][]float64{}
	add := func(name, unit string, v float64) {
		key := name + " " + unit
		if _, ok := vals[key]; !ok {
			keys = append(keys, key)
		}
		vals[key] = append(vals[key], v)
	}
	for _, b := range doc.Benchmarks {
		units := make([]string, 0, len(b.Metrics))
		for unit := range b.Metrics {
			if direction(unit) != "" {
				units = append(units, unit)
			}
		}
		sort.Strings(units)
		for _, unit := range units {
			add(b.Name, unit, b.Metrics[unit])
		}
		if b.NsPerOp > 0 {
			add(b.Name, "ns/op", b.NsPerOp)
		}
	}
	out := make([]Summary, len(keys))
	for i, key := range keys {
		vs := vals[key]
		sort.Float64s(vs)
		lo, hi := vs[0], vs[len(vs)-1]
		sp := strings.LastIndexByte(key, ' ')
		out[i] = Summary{Name: key[:sp], Unit: key[sp+1:], Better: direction(key[sp+1:]), Samples: len(vs), Best: hi}
		// Noise only ever costs performance, so the best sample is the
		// highest throughput or the lowest time: a genuine regression
		// moves every sample, a noisy one leaves the best intact.
		if out[i].Better == "lower" {
			out[i].Best = lo
		}
		if out[i].Best != 0 {
			out[i].Spread = (hi - lo) / out[i].Best
		}
	}
	return out
}

// compareThroughput gates the fresh document against a baseline: every
// gated metric a benchmark reports in both documents must stay within the
// fractional tolerance of its baseline value, scored on each side's best
// sample (go test -count=N). Only moves in the worse direction count;
// metrics present on one side only are reported but never fail the gate
// (renames and removals are deliberate acts, caught by the diff of
// BENCH_sim.json itself). Returns human-readable verdict lines, each with
// both sides' sample spread, and whether the gate failed.
func compareThroughput(baseline, fresh Document, tolerance float64) (lines []string, failed bool) {
	now := map[string]Summary{}
	for _, s := range summarize(fresh) {
		now[s.Name+" "+s.Unit] = s
	}
	for _, old := range summarize(baseline) {
		key := old.Name + " " + old.Unit
		if old.Best <= 0 {
			continue
		}
		cur, ok := now[key]
		if !ok {
			lines = append(lines, fmt.Sprintf("skip %s: no %s in fresh run (removed or renamed?)", old.Name, old.Unit))
			continue
		}
		delete(now, key)
		change := cur.Best/old.Best - 1
		worse := -change
		if old.Better == "lower" {
			worse = change
		}
		verdict := "ok  "
		if worse > tolerance {
			verdict = "FAIL"
			failed = true
		}
		lines = append(lines, fmt.Sprintf("%s %s: %.1f %s vs baseline %.1f (%+.1f%%; spread %.1f%% vs %.1f%%)",
			verdict, old.Name, cur.Best, old.Unit, old.Best, change*100, cur.Spread*100, old.Spread*100))
	}
	newKeys := make([]string, 0, len(now))
	for key := range now {
		newKeys = append(newKeys, key)
	}
	sort.Strings(newKeys)
	for _, key := range newKeys {
		lines = append(lines, fmt.Sprintf("note %s: new benchmark metric, no baseline", key))
	}
	return lines, failed
}

// parseBench parses one result line: name, iteration count, then
// (value, unit) pairs — ns/op first, custom metrics after.
func parseBench(line string) (Benchmark, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return Benchmark{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, false
	}
	b := Benchmark{Name: fields[0], Iters: iters, Metrics: map[string]float64{}}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			continue
		}
		if fields[i+1] == "ns/op" {
			b.NsPerOp = v
		} else {
			b.Metrics[fields[i+1]] = v
		}
	}
	if len(b.Metrics) == 0 {
		b.Metrics = nil
	}
	return b, true
}
