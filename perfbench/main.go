// Command perfbench is the repository benchmark. It drives the real
// ogbench and opgated binaries through three workloads and checks their
// outputs:
//
//	paper-cold   ogbench -experiment all -quick, no store, one fresh
//	             process per evaluation
//	paper-warm   the same evaluation with -store, over a store filled
//	             during set-up
//	service-mix  one opgated -quick -workers 2 -store, driven closed-loop
//	             over two connections in rounds: one cold fig15 request
//	             at a fresh threshold beside ten warm re-submits of an
//	             already-filed fig15 request
//
// Every child runs with GOMAXPROCS=1, bound to one CPU that a pacer
// shares while it is measured; CPU-time metrics are normalized by the
// pacer's speed (see pace.go).
//
// With --trace 0 it prints the end-to-end metrics of one workload. With
// --trace 1 it repeats the workload with spans on and prints per-layer
// metrics, timed by calling each layer's public functions from outside
// the program (see layers.go). The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// run.sh builds the binaries and passes --bin, --work and --traces.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"
)

// runLimit bounds one run, set-up included, below the 180 s a run may
// take; children are killed when it expires.
const runLimit = 170 * time.Second

// setupRepeats is how many times a run sets its workload up; setup_s is
// the median, and the last set-up is the one the timed phase uses.
const setupRepeats = 3

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool

	bin    string // directory holding the ogbench and opgated binaries
	work   string // scratch directory, emptied at start and removed at exit
	traces string // where traced runs write their span files
}

// bench accumulates one run's operations and metrics.
type bench struct {
	opts   options
	expect *expectations

	attempted, failed int
	rows              []row
}

// row is one printed metric: its value, unit and sample count. An info
// row is printed in the table but left out of the JSON result.
type row struct {
	name    string
	value   float64
	unit    string
	samples int
	info    bool
}

// check counts one operation and records whether it failed.
func (b *bench) check(what string, err error) bool {
	b.attempted++
	if err != nil {
		b.failed++
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", what, err)
		return false
	}
	return true
}

func (b *bench) add(name string, value float64, unit string, samples int) {
	b.rows = append(b.rows, row{name, value, unit, samples, false})
}

// info adds a row the table prints for reading but the JSON result leaves
// out.
func (b *bench) info(name string, value float64, unit string, samples int) {
	b.rows = append(b.rows, row{name, value, unit, samples, true})
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

// print writes the metric table and, as the last line, the JSON result.
func (b *bench) print() error {
	res := resultJSON{
		Correct:   b.failed == 0 && b.attempted > 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   map[string]metricJSON{},
	}
	fmt.Printf("%-34s %14s  %-6s %s\n", "metric", "value", "unit", "samples")
	for _, r := range b.rows {
		if r.info {
			fmt.Printf("%-34s %14.6g  %-6s %d  (not in the result)\n", r.name, r.value, r.unit, r.samples)
			continue
		}
		fmt.Printf("%-34s %14.6g  %-6s %d\n", r.name, r.value, r.unit, r.samples)
		res.Metrics[r.name] = metricJSON{r.value, r.unit}
	}
	fmt.Printf("fail_frac %d/%d\n", b.failed, b.attempted)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

var workloads = map[string]func(context.Context, *bench){
	"paper-cold":  func(ctx context.Context, b *bench) { b.paper(ctx, false) },
	"paper-warm":  func(ctx context.Context, b *bench) { b.paper(ctx, true) },
	"service-mix": func(ctx context.Context, b *bench) { b.service(ctx) },
}

// endToEnd names the metrics every --trace 0 run reports, whatever the
// workload (BENCHMARK.json's end_to_end list).
var endToEnd = []string{"setup_s", "peak_rss_mb", "norm_cpu_ms"}

func main() {
	var o options
	var selfcheck, record bool
	var runs int
	flag.StringVar(&o.workload, "workload", "", "paper-cold | paper-warm | service-mix")
	flag.Uint64Var(&o.seed, "seed", 1, "input seed")
	flag.IntVar(&o.seconds, "seconds", 20, "how long the timed phase measures")
	trace := flag.Int("trace", 0, "1: per-layer traced run instead of the end-to-end run")
	flag.StringVar(&o.bin, "bin", "", "directory holding ogbench and opgated")
	flag.StringVar(&o.work, "work", "", "scratch directory")
	flag.StringVar(&o.traces, "traces", "", "directory for span files")
	flag.BoolVar(&selfcheck, "selfcheck", false, "run every workload of BENCHMARK.json --runs times and print each metric's spread next to its bound")
	flag.IntVar(&runs, "runs", 5, "runs per workload for --selfcheck")
	flag.BoolVar(&record, "record", false, "write testdata/expect.json from this checkout (the reference commit)")
	flag.Parse()
	o.trace = *trace == 1
	if o.bin == "" || o.work == "" || o.traces == "" {
		fmt.Fprintln(os.Stderr, "perfbench: --bin, --work and --traces are required (run.sh passes them)")
		os.Exit(2)
	}
	if selfcheck {
		if err := selfCheck(o, runs); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(o, record); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(o options, record bool) error {
	if err := os.RemoveAll(o.work); err != nil {
		return err
	}
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(o.work)
	// SIGTERM or SIGINT ends the run early but still stops the children
	// and removes the work directory.
	sigCtx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, os.Interrupt)
	defer stop()
	ctx, cancel := context.WithTimeout(sigCtx, runLimit)
	defer cancel()

	if record {
		return recordExpectations(ctx, o)
	}
	exp, err := loadExpectations()
	if err != nil {
		return err
	}
	drive, ok := workloads[o.workload]
	if !ok {
		return fmt.Errorf("--workload %q: want one of %s", o.workload, strings.Join(workloadNames(), ", "))
	}
	if o.seconds < 1 {
		return fmt.Errorf("--seconds %d: want at least 1", o.seconds)
	}
	b := &bench{opts: o, expect: exp}
	if o.trace {
		err = b.traced(ctx)
	} else {
		drive(ctx, b)
	}
	if err != nil {
		return err
	}
	if !o.trace {
		have := map[string]bool{}
		for _, r := range b.rows {
			have[r.name] = true
		}
		for _, name := range endToEnd {
			if !have[name] {
				return fmt.Errorf("metric %s not measured (%d of %d operations failed)", name, b.failed, b.attempted)
			}
		}
	}
	for _, r := range b.rows {
		if r.samples == 0 {
			return fmt.Errorf("metric %s has no samples (%d of %d operations failed)", r.name, b.failed, b.attempted)
		}
	}
	return b.print()
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
