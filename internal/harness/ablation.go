package harness

import (
	"context"
	"fmt"

	"opgate/internal/emu"
	"opgate/internal/isa"
	"opgate/internal/power"
	"opgate/internal/store"
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
		cfg   ablationConfig
	}{
		{"base ISA (no ALU widths)", ablationConfig{opts: vrp.Options{Mode: vrp.Useful, Opcodes: isa.BaseOpcodeSet()}}},
		{"paper extension set", ablationConfig{variant: "vrp"}},
		{"ideal (all widths)", ablationConfig{opts: vrp.Options{Mode: vrp.Useful, Opcodes: isa.FullOpcodeSet()}}},
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
	for _, set := range sets {
		points, err := mapNames(ctx, s, func(name string) (point, error) {
			g, h, err := s.ablationMeasure(name, set.cfg, true)
			if err != nil {
				return point{}, err
			}
			base, err := s.Baseline(name)
			if err != nil {
				return point{}, err
			}
			_, saved := power.Savings(base.Energy, g.Energy)
			return point{saved, h}, nil
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
			Label:  set.label,
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
		label string
		cfg   ablationConfig
	}{
		{"full (proposed VRP)", ablationConfig{variant: "vrp"}},
		{"no useful ranges", ablationConfig{variant: "vrp-conv"}},
		{"no loop analysis", ablationConfig{opts: vrp.Options{Mode: vrp.Useful, DisableLoopAnalysis: true}}},
		{"no branch refinement", ablationConfig{opts: vrp.Options{Mode: vrp.Useful, DisableBranchRefinement: true}}},
		{"ranges only (all off)", ablationConfig{opts: vrp.Options{Mode: vrp.Conventional,
			DisableLoopAnalysis: true, DisableBranchRefinement: true}}},
	}
	rep := &Report{
		ID:      "ablation-analysis",
		Title:   "Analysis ablation: dynamic 64-bit share",
		Unit:    "fraction",
		Columns: []string{"64-bit share"},
		Percent: true,
	}
	for _, c := range configs {
		hists, err := mapNames(ctx, s, func(name string) (vrp.WidthHistogram, error) {
			_, h, err := s.ablationMeasure(name, c.cfg, false)
			return h, err
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
		rep.Rows = append(rep.Rows, Row{Label: c.label, Values: []float64{hist.Fraction(3)}})
	}
	return rep, nil
}

// ablationConfig names the binary of one ablation row: a suite variant
// label when set, otherwise a one-off VRP configuration of the evaluation
// binary.
type ablationConfig struct {
	variant string
	opts    vrp.Options
}

// ablationSuiteLabels are the variants a timed ablation binary is
// matched against by identity: the ones the evaluation simulates anyway.
var ablationSuiteLabels = [...]string{"base", "vrp"}

// ablationMeasure returns the dynamic width histogram of an ablation
// row's binary and, when timed, its software-gated simulation. Every
// ablation binary is a width-only rewrite, so its histogram costs it no
// traversal (binRecords). A timed binary whose key equals the workload's
// base or vrp binary reads that binary's memoized simulation through its
// label; any other costs one live timing pass (ablationRun).
func (s *Suite) ablationMeasure(name string, cfg ablationConfig, timed bool) (*uarch.Result, vrp.WidthHistogram, error) {
	b, err := s.ablationProgram(name, cfg)
	if err != nil {
		return nil, vrp.WidthHistogram{}, err
	}
	prof, err := s.binRecords(b)
	if err != nil {
		return nil, vrp.WidthHistogram{}, err
	}
	h := prof.widths()
	if !timed {
		return nil, h, nil
	}
	for _, label := range ablationSuiteLabels {
		sb, err := s.variantBinary(name, label)
		if err != nil {
			return nil, h, err
		}
		if sb.key == b.key {
			g, err := s.Sim(name, label, power.GateSoftware)
			return g, h, err
		}
	}
	g, err := s.ablationRun(b)
	return g, h, err
}

// ablationProgram resolves an ablation row's binary: its suite variant,
// or the evaluation binary analysed under the row's one-off VRP
// configuration and applied. A trace skeleton has no analyzable control
// flow, so trace-backed workloads are gated as in VRP.
func (s *Suite) ablationProgram(name string, cfg ablationConfig) (variantBin, error) {
	if cfg.variant != "" {
		return s.variantBinary(name, cfg.variant)
	}
	if workload.IsTrace(name) {
		return variantBin{}, traceOnlyErr(name, "VRP analysis")
	}
	p, err := s.Program(name, s.evalClass())
	if err != nil {
		return variantBin{}, err
	}
	r, err := vrp.Analyze(p, cfg.opts)
	if err != nil {
		return variantBin{}, fmt.Errorf("harness: ablation vrp %s: %w", name, err)
	}
	q := r.Apply()
	return variantBin{q, binKey{name, store.ProgramIdentity(q)}, true}, nil
}

// ablationRun makes the single live traversal of a timed ablation binary
// the evaluation does not otherwise simulate: one emulation feeding a
// one-meter software-gated timing pass. Its trace is never captured or
// stored, and Emulations does not count it; the ablationRuns probe does.
func (s *Suite) ablationRun(b variantBin) (*uarch.Result, error) {
	sim, err := s.newSim(b, []power.GatingMode{power.GateSoftware})
	if err != nil {
		return nil, err
	}
	m := emu.New(b.p)
	defer m.Release()
	m.Sink = sim
	s.ablationRuns.Add(1)
	if err := m.Run(); err != nil {
		return nil, fmt.Errorf("harness: ablation run %v: %w", b.key, err)
	}
	return sim.FinishAll()[0], nil
}
