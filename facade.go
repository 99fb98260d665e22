// facade.go is the program-level half of the public API: assemble or
// load one OG64 binary, run the optimizer pipeline over it, and simulate
// it under a gating mode — the paper's flow (analyze → re-encode →
// optionally specialize → run) in a handful of calls. The experiment
// pipeline over the whole workload suite lives on Session (session.go).
package opgate

import (
	"fmt"
	"os"

	"opgate/internal/asm"
	"opgate/internal/emu"
	"opgate/internal/power"
	"opgate/internal/prog"
	"opgate/internal/uarch"
	"opgate/internal/vrp"
	"opgate/internal/vrs"
	"opgate/internal/workload"
)

// Program is one OG64 binary: instructions, functions, and initial data.
type Program = prog.Program

// RunResult is a functional execution's observable outcome.
type RunResult = emu.RunResult

// GatingMode selects how datapath bytes are gated during simulation.
type GatingMode = power.GatingMode

// The gating modes of the paper's evaluation: none (baseline), software
// (compiler widths), the two hardware compression schemes, and the two
// cooperative schemes combining both.
const (
	GateNone           = power.GateNone
	GateSoftware       = power.GateSoftware
	GateHWSize         = power.GateHWSize
	GateHWSignificance = power.GateHWSignificance
	GateCooperative    = power.GateCooperative
	GateCooperativeSig = power.GateCooperativeSig
)

// Workload is one registered benchmark (the paper's eight kernels plus
// any generated synthetics).
type Workload = workload.Workload

// InputClass selects a workload's input set.
type InputClass = workload.InputClass

// The paper's train/ref input methodology: profile on Train, evaluate on
// Ref.
const (
	Train = workload.Train
	Ref   = workload.Ref
)

// Workloads returns the built-in benchmarks in paper order.
func Workloads() []*Workload { return workload.All() }

// WorkloadByName resolves a benchmark or synthetic registry name.
func WorkloadByName(name string) (*Workload, error) { return workload.ByName(name) }

// Assemble parses OG64 assembly text into a program.
func Assemble(src string) (*Program, error) { return asm.Assemble(src) }

// AssembleFile parses an assembly file.
func AssembleFile(path string) (*Program, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return asm.Assemble(string(b))
}

// Disassemble renders a program as assembly text.
func Disassemble(p *Program) string { return asm.Disassemble(p) }

// OptimizeOptions selects the analysis mode for Optimize.
type OptimizeOptions struct {
	// Conventional disables the useful-range (demanded-byte) analysis,
	// reproducing the paper's "conventional VRP" baseline.
	Conventional bool
}

// Optimized is the result of running the binary optimizer.
type Optimized struct {
	// Program is the re-encoded binary (narrow opcodes assigned).
	Program *Program
	// Analysis is the full VRP result (ranges, demands, widths).
	Analysis *vrp.Result
	// Original is the input binary.
	Original *Program
}

// Summary renders a one-line static width histogram.
func (o *Optimized) Summary() string {
	h := o.Analysis.StaticHistogram()
	t := float64(h.Total())
	if t == 0 {
		return "no width-bearing instructions"
	}
	return fmt.Sprintf("widths: 8b %.0f%%  16b %.0f%%  32b %.0f%%  64b %.0f%% (%d instructions)",
		100*float64(h.Count[0])/t, 100*float64(h.Count[1])/t,
		100*float64(h.Count[2])/t, 100*float64(h.Count[3])/t, int64(t))
}

// Optimize runs value range propagation over the program and returns the
// re-encoded binary, after re-executing it against the original to
// verify behavioural equivalence.
func Optimize(p *Program, opts OptimizeOptions) (*Optimized, error) {
	mode := vrp.Useful
	if opts.Conventional {
		mode = vrp.Conventional
	}
	r, err := vrp.Analyze(p, vrp.Options{Mode: mode})
	if err != nil {
		return nil, err
	}
	q := r.Apply()
	if err := emu.CheckEquivalence(p, q); err != nil {
		return nil, fmt.Errorf("opgate: re-encoded binary diverges: %w", err)
	}
	return &Optimized{Program: q, Analysis: r, Original: p}, nil
}

// SpecializeOptions configures profile-guided specialization.
type SpecializeOptions struct {
	// Threshold is the VRS energy threshold (the paper's 110..30 nJ
	// sweep); zero means DefaultThreshold.
	Threshold float64
}

// Specialized is the result of the full VRS pipeline.
type Specialized struct {
	// Program is the transformed, re-encoded binary.
	Program *Program
	// Result carries the profiled points, clones and statistics.
	Result *vrs.Result
}

// Specialize profiles trainProg (same code layout, training input) and
// applies value range specialization to refProg, then verifies the
// transformed binary's behavioural equivalence to refProg.
func Specialize(trainProg, refProg *Program, opts SpecializeOptions) (*Specialized, error) {
	r, err := vrs.Specialize(trainProg, refProg, vrs.Options{Threshold: opts.Threshold})
	if err != nil {
		return nil, err
	}
	q := r.Apply()
	if err := emu.CheckEquivalence(refProg, q); err != nil {
		return nil, fmt.Errorf("opgate: specialized binary diverges: %w", err)
	}
	return &Specialized{Program: q, Result: r}, nil
}

// Run executes a program functionally and returns its observable result.
func Run(p *Program) (*RunResult, error) { return emu.Execute(p) }

// Simulate runs the paper's machine (Table 2) through the out-of-order
// timing model with the operand-gated power model under one gating mode,
// and returns cycles, energy, and rates.
func Simulate(p *Program, mode GatingMode) (*uarch.Result, error) {
	return uarch.Run(p, uarch.DefaultConfig(), power.DefaultParams(), mode)
}

// CompareGating simulates the same program under baseline (ungated) and a
// gated mode, returning the fractional energy and ED² savings. Both modes
// ride one emulation and one timing pass.
func CompareGating(p *Program, mode GatingMode) (energySaving, ed2Saving float64, err error) {
	rs, err := uarch.RunModes(p, uarch.DefaultConfig(), power.DefaultParams(), []GatingMode{GateNone, mode})
	if err != nil {
		return 0, 0, err
	}
	base, g := rs[0], rs[1]
	_, energySaving = power.Savings(base.Energy, g.Energy)
	ed2Saving = power.EnergyDelay2Saving(base.Energy.Total(), base.Cycles, g.Energy.Total(), g.Cycles)
	return energySaving, ed2Saving, nil
}
