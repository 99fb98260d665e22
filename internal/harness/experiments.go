package harness

import (
	"context"
	"fmt"
)

// Experiment is one regenerable unit of the evaluation — a table, figure
// or ablation — as a first-class descriptor: the ID ogbench and opgated
// expose, the title consumers can list without running anything, and a
// builder returning the structured Report. Rendering is the caller's
// choice (TextRenderer, JSONRenderer, or any custom Renderer).
type Experiment struct {
	ID    string
	Title string
	Run   func(ctx context.Context, s *Suite, threshold float64) (*Report, error)
}

// Experiments returns every experiment in the paper's presentation order.
// cmd/ogbench, cmd/opgated and the golden-report regression tests all
// drive this list, so a new experiment is automatically exposed and
// regression-covered. Titles mirror the built reports exactly (asserted
// in tests).
func Experiments() []Experiment {
	pure := func(fn func(s *Suite) *Report) func(context.Context, *Suite, float64) (*Report, error) {
		return func(_ context.Context, s *Suite, _ float64) (*Report, error) { return fn(s), nil }
	}
	fixed := func(fn func(s *Suite, ctx context.Context) (*Report, error)) func(context.Context, *Suite, float64) (*Report, error) {
		return func(ctx context.Context, s *Suite, _ float64) (*Report, error) { return fn(s, ctx) }
	}
	return []Experiment{
		{"table1", "Energy savings for ALU operations (nJ), source width (row) -> dest width (column)",
			pure((*Suite).Table1)},
		{"table2", "Machine parameters", pure((*Suite).Table2)},
		{"table3", "Distribution of operation types (dynamic, after proposed VRP)",
			fixed((*Suite).Table3)},
		{"fig2", "Dynamic instruction distribution by width: conventional vs proposed VRP",
			fixed((*Suite).Figure2)},
		{"fig3", "Energy savings with VRP (per processor structure, suite average)",
			fixed((*Suite).Figure3)},
		{"fig4", "Distribution of the points profiled after specialization",
			func(ctx context.Context, s *Suite, th float64) (*Report, error) { return s.Figure4(ctx, th) }},
		{"fig5", "Distribution of the specialized instructions at compile time",
			func(ctx context.Context, s *Suite, th float64) (*Report, error) { return s.Figure5(ctx, th) }},
		{"fig6", "Distribution of run-time instructions: specialized vs guard comparisons",
			func(ctx context.Context, s *Suite, th float64) (*Report, error) { return s.Figure6(ctx, th) }},
		{"fig7", "Run-time instructions according to width",
			func(ctx context.Context, s *Suite, th float64) (*Report, error) { return s.Figure7(ctx, th) }},
		{"fig8", "Energy savings per benchmark: VRP and VRS at each threshold",
			fixed((*Suite).Figure8)},
		{"fig9", "Energy benefits for the different parts of the processor",
			fixed((*Suite).Figure9)},
		{"fig10", "Execution time savings (VRS variants vs baseline)",
			fixed((*Suite).Figure10)},
		{"fig11", "Energy-Delay^2 benefits",
			fixed((*Suite).Figure11)},
		{"fig12", "Data size distribution (significant bytes of produced values)",
			fixed((*Suite).Figure12)},
		{"fig13", "Energy savings for the hardware approaches",
			fixed((*Suite).Figure13)},
		{"fig14", "Energy savings for each processor part (hardware schemes)",
			fixed((*Suite).Figure14)},
		{"fig15", "Energy-delay^2 savings for hardware and software configurations",
			func(ctx context.Context, s *Suite, th float64) (*Report, error) { return s.Figure15(ctx, th) }},
		{"ablation-opcodes", "Opcode-set ablation: energy savings and 64-bit share under VRP",
			fixed((*Suite).AblationOpcodeSets)},
		{"ablation-analysis", "Analysis ablation: dynamic 64-bit share",
			fixed((*Suite).AblationAnalysis)},
	}
}

// LookupExperiment finds an experiment descriptor by ID.
func LookupExperiment(id string) (Experiment, bool) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// RunExperiment builds one experiment's structured report. Cancelling ctx
// stops the per-workload fan-out and returns the context's error.
func (s *Suite) RunExperiment(ctx context.Context, id string, threshold float64) (*Report, error) {
	e, ok := LookupExperiment(id)
	if !ok {
		return nil, fmt.Errorf("unknown experiment %q", id)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return e.Run(ctx, s, threshold)
}

// RunAll builds every experiment in order — the report sequence behind
// `ogbench -experiment all`, which the golden regression tests pin in
// both text and JSON form.
func (s *Suite) RunAll(ctx context.Context, threshold float64) ([]*Report, error) {
	exps := Experiments()
	reports := make([]*Report, 0, len(exps))
	for _, e := range exps {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		r, err := e.Run(ctx, s, threshold)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", e.ID, err)
		}
		reports = append(reports, r)
	}
	return reports, nil
}
