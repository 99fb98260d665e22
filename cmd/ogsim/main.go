// Command ogsim runs a program through the out-of-order timing model and
// the operand-gated power model, printing per-structure energy and the
// savings of the selected gating mode against the ungated baseline.
//
// Usage:
//
//	ogsim -workload compress -gating software
//	ogsim -gating hw-significance prog.s
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"opgate"
	"opgate/internal/objfile"
	"opgate/internal/power"
	"opgate/internal/prog"
	"opgate/internal/workload"
)

func main() {
	wl := flag.String("workload", "", "run a built-in benchmark instead of a file")
	gating := flag.String("gating", "software", "none|software|hw-significance|hw-size|cooperative|cooperative-sig")
	optimize := flag.Bool("optimize", true, "run VRP before simulating (software modes)")
	flag.Parse()
	if err := run(*wl, *gating, *optimize, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "ogsim:", err)
		os.Exit(1)
	}
}

func parseGating(s string) (power.GatingMode, error) {
	for _, m := range []power.GatingMode{power.GateNone, power.GateSoftware,
		power.GateHWSignificance, power.GateHWSize, power.GateCooperative,
		power.GateCooperativeSig} {
		if m.String() == s {
			return m, nil
		}
	}
	return 0, fmt.Errorf("unknown gating mode %q", s)
}

func run(wl, gating string, optimize bool, args []string) error {
	mode, err := parseGating(gating)
	if err != nil {
		return err
	}
	var p *prog.Program
	switch {
	case wl != "":
		w, werr := workload.ByName(wl)
		if werr != nil {
			return werr
		}
		p, err = w.Build(workload.Ref)
	case len(args) == 1:
		if strings.HasSuffix(args[0], ".og64") {
			p, err = objfile.ReadFile(args[0])
		} else {
			p, err = opgate.AssembleFile(args[0])
		}
	default:
		return fmt.Errorf("need an input file or -workload")
	}
	if err != nil {
		return err
	}

	run := p
	if optimize && (mode == power.GateSoftware || mode == power.GateCooperative || mode == power.GateCooperativeSig) {
		opt, oerr := opgate.Optimize(p, opgate.OptimizeOptions{})
		if oerr != nil {
			return oerr
		}
		run = opt.Program
	}

	base, err := opgate.Simulate(p, power.GateNone)
	if err != nil {
		return err
	}
	g, err := opgate.Simulate(run, mode)
	if err != nil {
		return err
	}

	fmt.Printf("instructions %d  cycles %d  IPC %.2f  bpred-miss %.1f%%  L1D-miss %.1f%%\n",
		g.Instructions, g.Cycles, g.IPC, 100*g.BranchMissRate, 100*g.L1DMissRate)
	per, total := power.Savings(base.Energy, g.Energy)
	fmt.Printf("%-14s %12s %12s %9s\n", "structure", "baseline", gating, "saving")
	for _, st := range power.Structures() {
		fmt.Printf("%-14s %12.0f %12.0f %8.1f%%\n",
			st, base.Energy.Energy[st], g.Energy.Energy[st], 100*per[st])
	}
	fmt.Printf("%-14s %12.0f %12.0f %8.1f%%\n", "TOTAL", base.Energy.Total(), g.Energy.Total(), 100*total)
	fmt.Printf("energy-delay^2 saving: %.1f%%\n",
		100*power.EnergyDelay2Saving(base.Energy.Total(), base.Cycles, g.Energy.Total(), g.Cycles))
	return nil
}
