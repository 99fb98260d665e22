// Command ogbench regenerates the paper's tables and figures.
//
// Usage:
//
//	ogbench -experiment all            # everything (the default)
//	ogbench -experiment fig8           # one experiment
//	ogbench -quick                     # evaluate on train inputs (faster)
//	ogbench -quick -format json        # canonical machine-readable reports
//	ogbench -experiment fig6 -sweep 110:30:20   # threshold sweep (one train pass per workload)
//
// -sweep evaluates one experiment across a VRS threshold grid —
// "lo:hi:step" with inclusive endpoints (walked in either direction), or
// an explicit comma list like "110,90,70" — sharing the train profile and
// baseline simulations across the grid so K thresholds cost one train
// emulation per workload. Text output prints one table per threshold;
// -format json emits the canonical opgate.sweep/v1 document. With -store,
// each cell is content-addressed like a single-threshold report, so a
// grown grid recomputes only missing cells.
//
// The workload space can be widened beyond the eight kernels with
// seed-driven synthetic programs (internal/progen):
//
//	ogbench -synthetic all                     # curated set, every family
//	ogbench -synthetic narrow,pointer -seed 7  # chosen families at a seed
//	ogbench -synthetic syn:wide/large/3        # one exact generation
//
// With -store, packed retirement traces persist in a content-addressed
// store under the given directory and are consulted before anything is
// emulated, so a warm rerun performs zero emulations and prints
// byte-identical reports; -store-limit bounds the store's size (LRU).
// A per-run summary ("ogbench: emulations=… store: hits=…") goes to
// stderr, leaving stdout exactly the reports.
//
// -format selects the renderer: "text" (default) is the classic aligned
// layout; "json" emits the canonical structured encoding (schema
// opgate.reports/v1) for machine consumers — both render the same
// structured reports from the same session. Interrupting a run (SIGINT/
// SIGTERM) cancels the per-workload fan-out instead of waiting for the
// full suite.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"opgate"
)

func main() {
	experiment := flag.String("experiment", "all", "table1|table2|table3|fig2..fig15|ablation-opcodes|ablation-analysis|all")
	quick := flag.Bool("quick", false, "evaluate on train inputs (faster)")
	threshold := flag.Float64("threshold", opgate.DefaultThreshold, "VRS specialization threshold (nJ)")
	sweep := flag.String("sweep", "", `VRS threshold sweep grid: "lo:hi:step" (inclusive endpoints) or a comma list, e.g. 110:30:20; requires a single -experiment`)
	format := flag.String("format", "text", "report renderer: text|json")
	synthetic := flag.String("synthetic", "", `synthetic workloads: "all" (curated set), a comma-separated family list, or exact syn:family/class/seed names`)
	seed := flag.Uint64("seed", 1, "generator seed for -synthetic family lists")
	class := flag.String("class", "small", "generator size class for -synthetic family lists (small|medium|large)")
	storeDir := flag.String("store", "", "persistent trace store directory (content-addressed, shared across runs)")
	storeLimit := flag.String("store-limit", "2GiB", "store size budget for -store, e.g. 256MiB, 2GiB, or bytes (0 = unlimited)")
	flag.Parse()

	explicit := map[string]bool{}
	flag.Visit(func(fl *flag.Flag) { explicit[fl.Name] = true })

	var renderer opgate.Renderer
	switch *format {
	case "text":
		renderer = opgate.TextRenderer{}
	case "json":
		renderer = opgate.JSONRenderer{}
	default:
		fmt.Fprintf(os.Stderr, "ogbench: -format %q: want text or json\n", *format)
		os.Exit(2)
	}
	if *threshold <= 0 {
		fmt.Fprintf(os.Stderr, "ogbench: -threshold %g: must be > 0\n", *threshold)
		os.Exit(2)
	}

	names, err := opgate.ExpandSynthetics(*synthetic, *seed, *class, explicit["seed"] || explicit["class"])
	if err != nil {
		fmt.Fprintln(os.Stderr, "ogbench: -synthetic:", err)
		os.Exit(2)
	}
	opts := []opgate.Option{
		opgate.WithQuick(*quick),
		opgate.WithSynthetics(names...),
	}
	if *storeDir != "" {
		limit, err := opgate.ParseSize(*storeLimit)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ogbench: -store-limit:", err)
			os.Exit(2)
		}
		st, err := opgate.OpenStore(*storeDir, limit)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ogbench: -store:", err)
			os.Exit(2)
		}
		opts = append(opts, opgate.WithStore(st))
	} else if explicit["store-limit"] {
		fmt.Fprintln(os.Stderr, "ogbench: -store-limit requires -store")
		os.Exit(2)
	}
	var grid []float64
	if *sweep != "" {
		if *experiment == "all" {
			fmt.Fprintln(os.Stderr, "ogbench: -sweep needs one -experiment, not all")
			os.Exit(2)
		}
		if explicit["threshold"] {
			fmt.Fprintln(os.Stderr, "ogbench: -sweep and -threshold are exclusive (the sweep is the threshold axis)")
			os.Exit(2)
		}
		grid, err = parseSweepGrid(*sweep)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ogbench: -sweep:", err)
			os.Exit(2)
		}
	}
	sess, err := opgate.NewSession(opts...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ogbench:", err)
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	run := func() error {
		if *sweep != "" {
			sw, err := sess.Sweep(ctx, *experiment, grid...)
			if err != nil {
				return err
			}
			if *format == "json" {
				b, err := opgate.EncodeSweep(sw)
				if err != nil {
					return err
				}
				_, err = os.Stdout.Write(b)
				return err
			}
			_, err = fmt.Fprint(os.Stdout, sw.Format())
			return err
		}
		var reports []*opgate.Report
		if *experiment == "all" {
			reports, err = sess.RunAll(ctx, opgate.AtThreshold(*threshold))
		} else {
			var r *opgate.Report
			r, err = sess.Run(ctx, *experiment, opgate.AtThreshold(*threshold))
			reports = []*opgate.Report{r}
		}
		if err != nil {
			return err
		}
		return renderer.Render(os.Stdout, reports)
	}
	if err := run(); err != nil {
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "ogbench: interrupted")
			os.Exit(130)
		}
		fmt.Fprintln(os.Stderr, "ogbench:", err)
		os.Exit(1)
	}
	if st, ok := sess.StoreStats(); ok {
		fmt.Fprintf(os.Stderr,
			"ogbench: emulations=%d store: hits=%d misses=%d puts=%d put-errors=%d evictions=%d\n",
			sess.Emulations(), st.Hits, st.Misses, st.Puts, st.PutErrors, st.Evictions)
	}
}

// parseSweepGrid parses -sweep's grid syntax: "lo:hi:step" walks from lo
// toward hi (either direction, inclusive endpoints) by a positive step;
// a comma-separated list names the thresholds explicitly.
func parseSweepGrid(spec string) ([]float64, error) {
	if strings.Contains(spec, ":") {
		parts := strings.Split(spec, ":")
		if len(parts) != 3 {
			return nil, fmt.Errorf("%q: want lo:hi:step", spec)
		}
		lo, err1 := strconv.ParseFloat(parts[0], 64)
		hi, err2 := strconv.ParseFloat(parts[1], 64)
		step, err3 := strconv.ParseFloat(parts[2], 64)
		if err1 != nil || err2 != nil || err3 != nil {
			return nil, fmt.Errorf("%q: want numeric lo:hi:step", spec)
		}
		if step <= 0 {
			return nil, fmt.Errorf("step %g: must be > 0 (direction comes from lo and hi)", step)
		}
		dir := 1.0
		if hi < lo {
			dir = -1
		}
		// A hair of slack on the inclusive endpoint absorbs binary float
		// accumulation (e.g. 0.1-sized steps).
		slack := step * 1e-9
		var grid []float64
		for i := 0; ; i++ {
			v := lo + dir*step*float64(i)
			if (dir > 0 && v > hi+slack) || (dir < 0 && v < hi-slack) {
				break
			}
			if len(grid) >= 1000 {
				return nil, fmt.Errorf("%q: more than 1000 grid points", spec)
			}
			grid = append(grid, v)
		}
		return grid, nil
	}
	parts := strings.Split(spec, ",")
	grid := make([]float64, len(parts))
	for i, part := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, fmt.Errorf("threshold %q: %v", part, err)
		}
		grid[i] = v
	}
	return grid, nil
}
