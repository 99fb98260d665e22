package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// evalArgs is the paper's evaluation, every experiment, on train inputs:
// a ref evaluation takes 4-6 s, too few of which fit in a run for their
// median to hold still on a shared host.
var evalArgs = []string{"-experiment", "all", "-quick", "-format", "json"}

// paper runs paper-cold (warm = false) or paper-warm. Every evaluation
// is a fresh ogbench process whose stdout must match the digest recorded
// at the reference commit; the warm evaluations must also emulate
// nothing. The seed shapes nothing here: the paper's inputs are fixed.
//
// Set-up: paper-warm fills a fresh store with a cold -store evaluation;
// paper-cold primes the binary and page cache with one evaluation. Either
// is done setupRepeats times; setup_s is the median of their CPU times,
// normalized by a pacer.
func (b *bench) paper(ctx context.Context, warm bool) {
	var setups []float64
	storeDir := ""
	for i := 0; i < setupRepeats; i++ {
		args := evalArgs
		if warm {
			storeDir = filepath.Join(b.opts.work, fmt.Sprintf("store%d", i))
			args = append(args, "-store", storeDir)
		}
		p := startPacer()
		c, err := b.runChild(ctx, "ogbench", args...)
		pacerMs := p.end()
		if warm && i < setupRepeats-1 {
			removeAll(storeDir)
		}
		if err == nil {
			setups = append(setups, normalize(ms(c.cpu), pacerMs)/1000)
			err = checkDigest(c.stdout, b.expect.Reports["train"])
		}
		b.check("set-up", err)
	}

	args := evalArgs
	if warm {
		args = append(args, "-store", storeDir)
	}
	var wall, cpu, norm, rss []float64
	start := time.Now()
	for time.Since(start) < time.Duration(b.opts.seconds)*time.Second && ctx.Err() == nil {
		// An evaluation that ran is timed even when its output is wrong:
		// the run then reports correct=false with its measurements.
		p := startPacer()
		c, err := b.runChild(ctx, "ogbench", args...)
		pacerMs := p.end()
		if err == nil {
			wall = append(wall, ms(c.wall))
			cpu = append(cpu, ms(c.cpu))
			norm = append(norm, normalize(ms(c.cpu), pacerMs))
			rss = append(rss, c.rssMB)
			err = checkDigest(c.stdout, b.expect.Reports["train"])
		}
		if err == nil && warm && !bytes.Contains(c.stderr, []byte("emulations=0 ")) {
			err = errors.New("warm evaluation emulated: " + string(lastLine(c.stderr)))
		}
		b.check("evaluation", err)
	}
	elapsed := time.Since(start).Seconds()

	b.add("setup_s", median(setups), "s", len(setups))
	b.add("peak_rss_mb", median(rss), "MB", len(rss)) // the typical evaluation's peak
	b.add("norm_cpu_ms", median(norm), "ms", len(norm))
	b.info("cpu_ms", median(cpu), "ms", len(cpu))
	// A run holds too few evaluations for any percentile to have ten
	// samples beyond it, so the tail is the slowest evaluation.
	b.latencies("", wall, 100)
	b.info("ops_per_s", float64(len(wall))/elapsed, "1/s", len(wall))
}

// latencies prints the median and the tail of one operation class's wall
// times. They stay out of the JSON result: on a shared host a wall time
// follows the other tenants more than the program (see README.md). The
// tail's percentile is fixed per class, so it means the same in every
// run: the highest of p99, p95 and p75 that has at least ten samples
// beyond it at the class's usual sample count, or the maximum (100).
func (b *bench) latencies(prefix string, ms []float64, tailPct float64) {
	b.info(prefix+"p50_ms", median(ms), "ms", len(ms))
	b.info(prefix+"tail_ms", percentile(ms, tailPct), "ms", len(ms))
	if beyond := float64(len(ms)) * (1 - tailPct/100); tailPct < 100 && beyond < 10 {
		fmt.Fprintf(os.Stderr, "perfbench: %stail_ms (p%g) has only %.0f samples beyond it\n", prefix, tailPct, beyond)
	}
}
