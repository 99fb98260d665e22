package harness

import (
	"context"
	"fmt"
	"slices"

	"opgate/internal/isa"
	"opgate/internal/power"
	"opgate/internal/uarch"
	"opgate/internal/vrp"
)

// The opcode ablation's configurations (§4.3). The one-off sets are made
// once, so that the options are a key (rewriteWidths).
var (
	baseISA  = vrp.Options{Mode: vrp.Useful, Opcodes: isa.BaseOpcodeSet()}
	paperISA = vrp.Options{Mode: vrp.Useful}
	idealISA = vrp.Options{Mode: vrp.Useful, Opcodes: isa.FullOpcodeSet()}
	// overlaid are the one-off configurations the opcode ablation times:
	// each workload's base pass times them as software overlays
	// (Suite.overlays).
	overlaid = []vrp.Options{baseISA, idealISA}
)

// AblationOpcodeSets quantifies §4.3's design decision: how much of the
// gating benefit depends on which narrow opcodes the ISA encodes. Three
// points: the unextended base ISA (only memory and mask operations carry
// widths), the paper's chosen extension set, and an idealised ISA with
// every class encodable at every width.
func (s *Suite) AblationOpcodeSets(ctx context.Context) (*Report, error) {
	sets := []struct {
		label string
		opts  vrp.Options
	}{
		{"base ISA (no ALU widths)", baseISA},
		{"paper extension set", paperISA},
		{"ideal (all widths)", idealISA},
	}
	rep := &Report{
		ID:      "ablation-opcodes",
		Title:   "Opcode-set ablation: energy savings and 64-bit share under VRP",
		Unit:    "fraction",
		Columns: []string{"energy saved", "64-bit share"},
		Percent: true,
	}
	for _, set := range sets {
		hist, err := sumWidths(ctx, s, func(name string) (vrp.WidthHistogram, error) {
			return s.ablationWidths(name, set.opts)
		})
		if err != nil {
			return nil, err
		}
		saved, err := mapNames(ctx, s, func(name string) (float64, error) {
			base, err := s.Baseline(name)
			if err != nil {
				return 0, err
			}
			g, err := s.ablationSim(name, set.opts)
			if err != nil {
				return 0, err
			}
			_, total := power.Savings(base.Energy, g.Energy)
			return total, nil
		})
		if err != nil {
			return nil, err
		}
		var savedSum float64
		for _, v := range saved {
			savedSum += v
		}
		rep.Rows = append(rep.Rows, Row{
			Label:  set.label,
			Values: []float64{savedSum / float64(len(saved)), hist.Fraction(3)},
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
		opts  vrp.Options
	}{
		{"full (proposed VRP)", vrp.Options{Mode: vrp.Useful}},
		{"no useful ranges", vrp.Options{Mode: vrp.Conventional}},
		{"no loop analysis", vrp.Options{Mode: vrp.Useful, DisableLoopAnalysis: true}},
		{"no branch refinement", vrp.Options{Mode: vrp.Useful, DisableBranchRefinement: true}},
		{"ranges only (all off)", vrp.Options{Mode: vrp.Conventional,
			DisableLoopAnalysis: true, DisableBranchRefinement: true}},
	}
	rep := &Report{
		ID:      "ablation-analysis",
		Title:   "Analysis ablation: dynamic 64-bit share",
		Unit:    "fraction",
		Columns: []string{"64-bit share"},
		Percent: true,
	}
	for _, c := range configs {
		hist, err := sumWidths(ctx, s, func(name string) (vrp.WidthHistogram, error) {
			return s.ablationWidths(name, c.opts)
		})
		if err != nil {
			return nil, err
		}
		rep.Rows = append(rep.Rows, Row{Label: c.label, Values: []float64{hist.Fraction(3)}})
	}
	return rep, nil
}

// sumWidths fans a per-workload width histogram out across the suite and
// sums it.
func sumWidths(ctx context.Context, s *Suite, fn func(name string) (vrp.WidthHistogram, error)) (vrp.WidthHistogram, error) {
	hists, err := mapNames(ctx, s, fn)
	var sum vrp.WidthHistogram
	for _, h := range hists {
		for i := range sum.Count {
			sum.Count[i] += h.Count[i]
		}
	}
	return sum, err
}

// rewriteWidths returns (cached) the operand widths VRP assigns the
// evaluation binary under an ablation configuration: VRP's own analysis
// for a plain mode, otherwise a one-off analysis (analyze, gated like
// VRP) of which only the widths are kept.
func (s *Suite) rewriteWidths(name string, opts vrp.Options) ([]isa.Width, error) {
	if opts == (vrp.Options{Mode: opts.Mode}) {
		r, err := s.VRP(name, opts.Mode)
		if err != nil {
			return nil, err
		}
		return r.Width, nil
	}
	return s.rewrites.do(rewriteKey{name, opts}, func() ([]isa.Width, error) {
		r, err := s.analyze(name, opts)
		if err != nil {
			return nil, err
		}
		return r.Width, nil
	})
}

// ablationWidths returns the dynamic width histogram of an ablation row's
// binary, the evaluation binary rewritten to the row's widths. A
// width-only rewrite retires its base binary's exact path
// (difftest.CheckRewrites), so that is the base binary's retirement
// counts over those widths: no traversal of its own.
func (s *Suite) ablationWidths(name string, opts vrp.Options) (vrp.WidthHistogram, error) {
	w, err := s.rewriteWidths(name, opts)
	if err != nil {
		return vrp.WidthHistogram{}, err
	}
	base, err := s.records(name, "base")
	if err != nil {
		return vrp.WidthHistogram{}, err
	}
	return (&recProfile{p: base.p, counts: base.counts, w: w}).widths(), nil
}

// ablationSim returns the software-gated simulation of an opcode
// ablation row's binary from a pass the evaluation makes anyway: the
// paper set's from its vrp binary's, a one-off set's from the workload's
// base pass (Suite.overlays).
func (s *Suite) ablationSim(name string, opts vrp.Options) (*uarch.Result, error) {
	if opts == paperISA {
		return s.Sim(name, "vrp", power.GateSoftware)
	}
	base, err := s.variantBinary(name, "base")
	if err != nil {
		return nil, err
	}
	t, err := s.binPass(base, true)
	if err != nil {
		return nil, err
	}
	k := slices.Index(overlaid, opts)
	if k < 0 || k >= len(t.at) {
		return nil, fmt.Errorf("harness: ablation %s: %+v is not timed", name, opts)
	}
	return t.rs[t.at[k]], nil
}
