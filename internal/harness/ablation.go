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

// ablationSuiteLabels are the variants an ablation binary is matched
// against by identity: the binaries every evaluation builds anyway.
var ablationSuiteLabels = [...]string{"base", "vrp", "vrp-conv"}

// ablationMeasure returns the software-gated simulation (when timed) and
// the dynamic width histogram of an ablation row's binary. A binary whose
// key equals one of the workload's suite binaries — most one-off
// configurations rebuild one — reads that binary's memoized results
// through its label. Any other binary costs exactly one live traversal
// (ablationRun).
func (s *Suite) ablationMeasure(name string, cfg ablationConfig, timed bool) (*uarch.Result, vrp.WidthHistogram, error) {
	var b variantBin
	var err error
	if cfg.variant != "" {
		b, err = s.variantBinary(name, cfg.variant)
	} else {
		b, err = s.ablationProgram(name, cfg.opts)
	}
	if err != nil {
		return nil, vrp.WidthHistogram{}, err
	}
	for _, label := range ablationSuiteLabels {
		sb, err := s.variantBinary(name, label)
		if err != nil {
			return nil, vrp.WidthHistogram{}, err
		}
		if sb.key != b.key {
			continue
		}
		var g *uarch.Result
		if timed {
			if g, err = s.Sim(name, label, power.GateSoftware); err != nil {
				return nil, vrp.WidthHistogram{}, err
			}
		}
		h, err := s.histogram(name, label, timed)
		return g, h, err
	}
	return s.ablationRun(b, timed)
}

// ablationProgram analyses the evaluation binary under a one-off VRP
// configuration, applies it and resolves the result's identity, which
// ablationMeasure matches against the suite's binaries. A trace skeleton
// has no analyzable control flow, so trace-backed workloads are gated as
// in VRP.
func (s *Suite) ablationProgram(name string, opts vrp.Options) (variantBin, error) {
	if workload.IsTrace(name) {
		return variantBin{}, traceOnlyErr(name, "VRP analysis")
	}
	p, err := s.Program(name, s.evalClass())
	if err != nil {
		return variantBin{}, err
	}
	r, err := vrp.Analyze(p, opts)
	if err != nil {
		return variantBin{}, fmt.Errorf("harness: ablation vrp %s: %w", name, err)
	}
	q := r.Apply()
	return variantBin{q, binKey{name, store.ProgramIdentity(q)}}, nil
}

// ablationRun makes the single live traversal of an ablation binary that
// no suite variant builds: one emulation whose records feed a record
// profile (for the width histogram) and, when timed, a one-meter
// software-gated timing pass — the same fan-out as a suite traversal. Its
// trace is never captured or stored, and Emulations does not count it;
// the ablationRuns probe does.
func (s *Suite) ablationRun(b variantBin, timed bool) (*uarch.Result, vrp.WidthHistogram, error) {
	ps := &pass{prof: newRecProfile(b.p, false)}
	if timed {
		var err error
		if ps.sim, err = s.newSim(b, []power.GatingMode{power.GateSoftware}); err != nil {
			return nil, vrp.WidthHistogram{}, err
		}
	}
	m := emu.New(b.p)
	defer m.Release()
	m.Sink = ps
	s.ablationRuns.Add(1)
	if err := m.Run(); err != nil {
		return nil, vrp.WidthHistogram{}, fmt.Errorf("harness: ablation run %v: %w", b.key, err)
	}
	var g *uarch.Result
	if timed {
		g = ps.sim.FinishAll()[0]
	}
	return g, ps.prof.widths(), nil
}
