package harness

import (
	"context"
	"fmt"

	"opgate/internal/emu"
	"opgate/internal/isa"
	"opgate/internal/power"
	"opgate/internal/prog"
	"opgate/internal/uarch"
	"opgate/internal/vrp"
	"opgate/internal/workload"
)

// AblationOpcodeSets quantifies §4.3's design decision: how much of the
// gating benefit depends on which narrow opcodes the ISA encodes. Three
// points: the unextended base ISA (only memory and mask operations carry
// widths), the paper's chosen extension set, and an idealised ISA with
// every class encodable at every width.
func (s *Suite) AblationOpcodeSets(ctx context.Context) (*Report, error) {
	sets := []struct {
		label string
		set   *isa.OpcodeSet // nil: the suite's "vrp" variant (the paper set)
	}{
		{"base ISA (no ALU widths)", isa.BaseOpcodeSet()},
		{"paper extension set", nil},
		{"ideal (all widths)", isa.FullOpcodeSet()},
	}
	rep := &Report{
		ID:      "ablation-opcodes",
		Title:   "Opcode-set ablation: energy savings and 64-bit share under VRP",
		Unit:    "fraction",
		Columns: []string{"energy saved", "64-bit share"},
		Percent: true,
	}
	type point struct {
		saved float64
		hist  vrp.WidthHistogram
	}
	for _, cfg := range sets {
		points, err := mapNames(ctx, s, func(name string) (point, error) {
			var pt point
			var err error
			if cfg.set == nil {
				if pt.saved, err = s.EnergySaving(name, "vrp", power.GateSoftware); err != nil {
					return pt, err
				}
				pt.hist, err = s.DynWidthHistogram(name, "vrp")
				return pt, err
			}
			q, err := s.ablationProgram(name, vrp.Options{Mode: vrp.Useful, Opcodes: cfg.set})
			if err != nil {
				return pt, err
			}
			base, err := s.Baseline(name)
			if err != nil {
				return pt, err
			}
			g, err := uarch.Run(q, s.Uarch, s.Power, power.GateSoftware)
			if err != nil {
				return pt, err
			}
			_, pt.saved = power.Savings(base.Energy, g.Energy)
			pt.hist, err = dynHistogramOf(q)
			return pt, err
		})
		if err != nil {
			return nil, err
		}
		var savedSum float64
		var hist vrp.WidthHistogram
		for _, pt := range points {
			savedSum += pt.saved
			for i := 0; i < 4; i++ {
				hist.Count[i] += pt.hist.Count[i]
			}
		}
		rep.Rows = append(rep.Rows, Row{
			Label:  cfg.label,
			Values: []float64{savedSum / float64(len(points)), hist.Fraction(3)},
		})
	}
	rep.Note = "the paper's set should capture most of the ideal set's benefit (§4.3: few 16-bit ops, MUL not worth encoding)"
	return rep, nil
}

// AblationAnalysis quantifies the contribution of the paper's analysis
// machinery: useful ranges (§2.2.5), loop trip counts (§2.3) and branch
// refinement (§2.2.4), measured as the 64-bit dynamic share when each is
// removed.
func (s *Suite) AblationAnalysis(ctx context.Context) (*Report, error) {
	configs := []struct {
		label   string
		variant string      // the suite variant this configuration builds, if any
		opts    vrp.Options // otherwise, a one-off analysis configuration
	}{
		{label: "full (proposed VRP)", variant: "vrp"},
		{label: "no useful ranges", variant: "vrp-conv"},
		{label: "no loop analysis", opts: vrp.Options{Mode: vrp.Useful, DisableLoopAnalysis: true}},
		{label: "no branch refinement", opts: vrp.Options{Mode: vrp.Useful, DisableBranchRefinement: true}},
		{label: "ranges only (all off)", opts: vrp.Options{Mode: vrp.Conventional,
			DisableLoopAnalysis: true, DisableBranchRefinement: true}},
	}
	rep := &Report{
		ID:      "ablation-analysis",
		Title:   "Analysis ablation: dynamic 64-bit share",
		Unit:    "fraction",
		Columns: []string{"64-bit share"},
		Percent: true,
	}
	for _, cfg := range configs {
		hists, err := mapNames(ctx, s, func(name string) (vrp.WidthHistogram, error) {
			if cfg.variant != "" {
				return s.DynWidthHistogram(name, cfg.variant)
			}
			q, err := s.ablationProgram(name, cfg.opts)
			if err != nil {
				return vrp.WidthHistogram{}, err
			}
			return dynHistogramOf(q)
		})
		if err != nil {
			return nil, err
		}
		var hist vrp.WidthHistogram
		for _, h := range hists {
			for i := 0; i < 4; i++ {
				hist.Count[i] += h.Count[i]
			}
		}
		rep.Rows = append(rep.Rows, Row{Label: cfg.label, Values: []float64{hist.Fraction(3)}})
	}
	return rep, nil
}

// ablationProgram analyses the evaluation binary under a one-off VRP
// configuration and applies it. The result lives outside the suite's
// variant and trace caches. A trace skeleton has no analyzable control
// flow, so trace-backed workloads are gated as in VRP.
func (s *Suite) ablationProgram(name string, opts vrp.Options) (*prog.Program, error) {
	if workload.IsTrace(name) {
		return nil, traceOnlyErr(name, "VRP analysis")
	}
	p, err := s.Program(name, s.evalClass())
	if err != nil {
		return nil, err
	}
	r, err := vrp.Analyze(p, opts)
	if err != nil {
		return nil, fmt.Errorf("harness: ablation vrp %s: %w", name, err)
	}
	return r.Apply(), nil
}

// dynHistogramOf runs a program and tallies retired width-bearing
// instruction widths from its live records (ablation variants are one-off
// programs outside the suite's trace cache).
func dynHistogramOf(p *prog.Program) (vrp.WidthHistogram, error) {
	var h vrp.WidthHistogram
	m := emu.New(p)
	defer m.Release()
	m.Sink = widthSink{&h}
	if err := m.Run(); err != nil {
		return h, err
	}
	return h, nil
}
