package main

import (
	"strings"
	"testing"
)

const sampleBenchOutput = `goos: linux
goarch: amd64
pkg: opgate
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkEmuMIPS/raw-4         	       3	    163945 ns/op	       156.8 MIPS
BenchmarkEmuMIPS/batch-4       	       3	    219290 ns/op	       117.1 MIPS
BenchmarkFigure3Matrix/fused-4 	       3	 197571446 ns/op
PASS
ok  	opgate	2.791s
`

func TestParseBenchOutput(t *testing.T) {
	doc, err := parseBenchOutput(strings.NewReader(sampleBenchOutput))
	if err != nil {
		t.Fatal(err)
	}
	if doc.Goos != "linux" || doc.Goarch != "amd64" || doc.Package != "opgate" {
		t.Fatalf("header drifted: %+v", doc)
	}
	if len(doc.Benchmarks) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3", len(doc.Benchmarks))
	}
	raw := doc.Benchmarks[0]
	if raw.Name != "BenchmarkEmuMIPS/raw-4" || raw.Iters != 3 || raw.NsPerOp != 163945 {
		t.Fatalf("first benchmark drifted: %+v", raw)
	}
	if raw.Metrics["MIPS"] != 156.8 {
		t.Fatalf("MIPS metric not parsed: %+v", raw.Metrics)
	}
	if doc.Benchmarks[2].Metrics != nil {
		t.Fatalf("metric-free benchmark grew metrics: %+v", doc.Benchmarks[2])
	}
}

// bench builds a single-benchmark document carrying one MIPS value.
func bench(name string, mips float64) Benchmark {
	return Benchmark{Name: name, Iters: 1, Metrics: map[string]float64{"MIPS": mips}}
}

func TestCompareThroughput(t *testing.T) {
	baseline := Document{Benchmarks: []Benchmark{
		bench("A", 100),
		bench("B", 100),
		bench("Gone", 50),
		{Name: "NoMetric", Iters: 1, NsPerOp: 5},
	}}

	t.Run("within-tolerance", func(t *testing.T) {
		fresh := Document{Benchmarks: []Benchmark{bench("A", 80), bench("B", 120), bench("New", 10)}}
		lines, failed := compareThroughput(baseline, fresh, 0.25)
		if failed {
			t.Fatalf("gate failed on a -20%% drop with 25%% tolerance:\n%s", strings.Join(lines, "\n"))
		}
		joined := strings.Join(lines, "\n")
		for _, want := range []string{"ok   A:", "ok   B:", "skip Gone:", "note New MIPS:"} {
			if !strings.Contains(joined, want) {
				t.Fatalf("verdicts missing %q:\n%s", want, joined)
			}
		}
	})

	t.Run("regression-fails", func(t *testing.T) {
		fresh := Document{Benchmarks: []Benchmark{bench("A", 74), bench("B", 100)}}
		lines, failed := compareThroughput(baseline, fresh, 0.25)
		if !failed {
			t.Fatalf("gate passed a -26%% regression:\n%s", strings.Join(lines, "\n"))
		}
		if !strings.Contains(strings.Join(lines, "\n"), "FAIL A:") {
			t.Fatalf("regressed benchmark not named:\n%s", strings.Join(lines, "\n"))
		}
	})

	t.Run("missing-benchmark-does-not-fail", func(t *testing.T) {
		fresh := Document{Benchmarks: []Benchmark{bench("A", 100), bench("B", 100)}}
		if _, failed := compareThroughput(baseline, fresh, 0.25); failed {
			t.Fatal("gate failed on a benchmark absent from the fresh run")
		}
	})

	t.Run("best-of-count-runs", func(t *testing.T) {
		// Three samples of A (go test -count=3): one healthy sample means
		// no regression, however noisy the others are.
		fresh := Document{Benchmarks: []Benchmark{bench("A", 40), bench("A", 99), bench("A", 60), bench("B", 100)}}
		if lines, failed := compareThroughput(baseline, fresh, 0.25); failed {
			t.Fatalf("gate failed despite a healthy best sample:\n%s", strings.Join(lines, "\n"))
		}
		// And when every sample regressed, the gate fires exactly once.
		fresh = Document{Benchmarks: []Benchmark{bench("A", 40), bench("A", 50), bench("B", 100)}}
		lines, failed := compareThroughput(baseline, fresh, 0.25)
		if !failed {
			t.Fatalf("gate passed a uniform regression:\n%s", strings.Join(lines, "\n"))
		}
		if n := strings.Count(strings.Join(lines, "\n"), "FAIL A:"); n != 1 {
			t.Fatalf("regressed benchmark reported %d times, want once:\n%s", n, strings.Join(lines, "\n"))
		}
	})

	t.Run("rate-units-are-gated", func(t *testing.T) {
		// A "/s" metric (the sweep benchmark's cells/s) is gated exactly
		// like MIPS, while informational counters riding on the same
		// benchmark line are ignored.
		cellBench := func(cells, trains float64) Benchmark {
			return Benchmark{Name: "Sweep", Iters: 1,
				Metrics: map[string]float64{"cells/s": cells, "train-emus": trains}}
		}
		base := Document{Benchmarks: []Benchmark{cellBench(25, 8)}}
		lines, failed := compareThroughput(base, Document{Benchmarks: []Benchmark{cellBench(10, 8)}}, 0.25)
		if !failed {
			t.Fatalf("gate passed a -60%% cells/s regression:\n%s", strings.Join(lines, "\n"))
		}
		// A counter regression (8 -> 40 train emulations) alone never
		// fires the throughput gate.
		lines, failed = compareThroughput(base, Document{Benchmarks: []Benchmark{cellBench(26, 40)}}, 0.25)
		if failed {
			t.Fatalf("gate fired on a non-throughput counter:\n%s", strings.Join(lines, "\n"))
		}
		if joined := strings.Join(lines, "\n"); !strings.Contains(joined, "ok   Sweep: 26.0 cells/s") {
			t.Fatalf("cells/s verdict missing:\n%s", joined)
		}
	})

	t.Run("multiple-metrics-per-benchmark", func(t *testing.T) {
		multi := func(mips, rate float64) Benchmark {
			return Benchmark{Name: "M", Iters: 1,
				Metrics: map[string]float64{"MIPS": mips, "reports/s": rate}}
		}
		base := Document{Benchmarks: []Benchmark{multi(100, 100)}}
		// Each metric is judged independently: a healthy MIPS does not
		// excuse a collapsed reports/s.
		lines, failed := compareThroughput(base, Document{Benchmarks: []Benchmark{multi(110, 10)}}, 0.25)
		if !failed {
			t.Fatalf("gate passed a regression hidden behind a healthy sibling metric:\n%s",
				strings.Join(lines, "\n"))
		}
	})
}

// timed builds a benchmark carrying only its ns/op and, when ms > 0, a
// custom "ms" metric.
func timed(name string, nsPerOp, ms float64) Benchmark {
	b := Benchmark{Name: name, Iters: 1, NsPerOp: nsPerOp}
	if ms > 0 {
		b.Metrics = map[string]float64{"ms": ms}
	}
	return b
}

func TestCompareLowerIsBetter(t *testing.T) {
	baseline := Document{Benchmarks: []Benchmark{timed("T", 100, 0), timed("M", 0, 10)}}

	t.Run("slower-fails", func(t *testing.T) {
		lines, failed := compareThroughput(baseline, Document{Benchmarks: []Benchmark{timed("T", 130, 0), timed("M", 0, 10)}}, 0.25)
		if !failed || !strings.Contains(strings.Join(lines, "\n"), "FAIL T: 130.0 ns/op") {
			t.Fatalf("gate passed a +30%% ns/op regression:\n%s", strings.Join(lines, "\n"))
		}
		lines, failed = compareThroughput(baseline, Document{Benchmarks: []Benchmark{timed("T", 100, 0), timed("M", 0, 13)}}, 0.25)
		if !failed || !strings.Contains(strings.Join(lines, "\n"), "FAIL M: 13.0 ms") {
			t.Fatalf("gate passed a +30%% ms regression:\n%s", strings.Join(lines, "\n"))
		}
	})

	t.Run("faster-or-within-tolerance-passes", func(t *testing.T) {
		fresh := Document{Benchmarks: []Benchmark{timed("T", 50, 0), timed("M", 0, 12)}}
		if lines, failed := compareThroughput(baseline, fresh, 0.25); failed {
			t.Fatalf("gate failed on a faster run or a +20%% time:\n%s", strings.Join(lines, "\n"))
		}
	})

	t.Run("best-is-the-lowest-sample", func(t *testing.T) {
		fresh := Document{Benchmarks: []Benchmark{
			timed("T", 200, 0), timed("T", 110, 0), timed("T", 150, 0), timed("M", 0, 10),
		}}
		lines, failed := compareThroughput(baseline, fresh, 0.25)
		if failed {
			t.Fatalf("gate failed despite a healthy fastest sample:\n%s", strings.Join(lines, "\n"))
		}
		if !strings.Contains(strings.Join(lines, "\n"), "ok   T: 110.0 ns/op vs baseline 100.0 (+10.0%") {
			t.Fatalf("verdict does not score the fastest sample:\n%s", strings.Join(lines, "\n"))
		}
	})
}

const spreadBenchOutput = `BenchmarkX/a 	3	10 ns/op	100 MIPS	7 train-emus
BenchmarkX/a 	3	12 ns/op	90 MIPS	7 train-emus
BenchmarkX/a 	3	11 ns/op	110 MIPS	7 train-emus
`

func TestSummaryRecordsBestAndSpread(t *testing.T) {
	doc, err := parseBenchOutput(strings.NewReader(spreadBenchOutput))
	if err != nil {
		t.Fatal(err)
	}
	want := []Summary{
		{Name: "BenchmarkX/a", Unit: "MIPS", Better: "higher", Samples: 3, Best: 110, Spread: 20.0 / 110},
		{Name: "BenchmarkX/a", Unit: "ns/op", Better: "lower", Samples: 3, Best: 10, Spread: 0.2},
	}
	if len(doc.Summary) != len(want) {
		t.Fatalf("summary %+v, want %+v (counters stay out)", doc.Summary, want)
	}
	for i := range want {
		got := doc.Summary[i]
		if got.Name != want[i].Name || got.Unit != want[i].Unit || got.Better != want[i].Better ||
			got.Samples != want[i].Samples || got.Best != want[i].Best ||
			got.Spread < want[i].Spread-1e-12 || got.Spread > want[i].Spread+1e-12 {
			t.Fatalf("summary[%d] = %+v, want %+v", i, got, want[i])
		}
	}
}
