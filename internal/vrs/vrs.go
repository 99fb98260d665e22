// Package vrs implements the paper's Value Range Specialization (§3): a
// profile-guided transformation that clones code regions, guards them with
// range tests, and lets value range propagation narrow the specialized
// copy. The three steps match §3 exactly:
//
//  1. candidate identification from basic-block profiles with a
//     preliminary benefit analysis at the minimum possible cost,
//  2. value profiling of the candidates with fixed-size TNV tables,
//  3. energy cost/benefit filtering and code transformation (single-value
//     specialization additionally runs constant propagation and dead-code
//     elimination inside the clone).
//
// The guard emitted before a specialized region is the paper's
// (x>=min && x<=max) test. Because the guard is an ordinary compare+branch
// sequence, re-running VRP on the transformed program narrows the clone
// through standard branch refinement — no side-channel range injection is
// needed.
package vrs

import (
	"fmt"

	"opgate/internal/emu"
	"opgate/internal/power"
	"opgate/internal/prog"
	"opgate/internal/vrp"
)

// Options configures specialization.
type Options struct {
	// Threshold is the fixed per-specialization energy overhead charged
	// in the benefit test — the paper's "VRS 110nJ ... VRS 30nJ"
	// configurations (Fig. 8): lower thresholds specialize more points.
	// 0 means 50.
	Threshold float64
	// Power parameters for the energy model (Table 1 energies); the zero
	// value means power.DefaultParams().
	Power power.Params
}

// coverage is the TNV range-coverage target: the fraction of a point's
// profiled values its chosen [min,max] must cover.
const coverage = 0.95

// analysis configures the VRP runs before and after transformation: VRS
// builds on the proposed (useful) VRP.
var analysis = vrp.Options{Mode: vrp.Useful}

func (o *Options) defaults() {
	if o.Threshold == 0 {
		o.Threshold = 50
	}
	var zero power.Params
	if o.Power == zero {
		o.Power = power.DefaultParams()
	}
}

// Outcome classifies a profiled point (Fig. 4's three bars).
type Outcome int

// Point outcomes.
const (
	NoBenefit Outcome = iota
	Subsumed          // "dependent on another point": inside a chosen region
	Specialized
)

// String names the outcome.
func (o Outcome) String() string {
	switch o {
	case NoBenefit:
		return "no-benefit"
	case Subsumed:
		return "subsumed"
	case Specialized:
		return "specialized"
	}
	return fmt.Sprintf("Outcome(%d)", int(o))
}

// Point is one profiled candidate.
type Point struct {
	InsIdx   int     // instruction index in the original program
	Count    int64   // executions observed in the block profile
	Min, Max int64   // chosen specialization range
	Freq     float64 // fraction of profiled values inside [Min,Max]
	Savings  float64 // estimated energy savings per §3.1
	Cost     float64 // guard energy cost per §3.2
	Benefit  float64 // Savings*Freq - Cost - Threshold
	Outcome  Outcome
	// Region is the original-program instruction range cloned for this
	// point (valid when Outcome == Specialized).
	RegionStart, RegionEnd int
}

// Result is the outcome of a full VRS run.
type Result struct {
	Original    *prog.Program
	Transformed *prog.Program
	Points      []Point

	// Static statistics (Fig. 5).
	StaticSpecialized int // instructions in specialized clones (incl. guards)
	StaticEliminated  int // clone instructions removed by const-prop + DCE

	// Instruction index sets in the transformed program, for runtime
	// accounting (Fig. 6).
	GuardIns map[int]bool
	SpecIns  map[int]bool

	// FinalVRP is the analysis of the transformed program (used by
	// Apply and the experiments).
	FinalVRP *vrp.Result
}

// NumSpecialized counts the points actually specialized.
func (r *Result) NumSpecialized() int {
	n := 0
	for i := range r.Points {
		if r.Points[i].Outcome == Specialized {
			n++
		}
	}
	return n
}

// Apply returns the transformed program re-encoded with the final VRP
// width assignment — the binary the evaluation runs.
func (r *Result) Apply() *prog.Program {
	return r.FinalVRP.Apply()
}

// Profile is the threshold-independent front half of the VRS pipeline:
// the baseline analysis of the reference binary, then, from one train
// emulation, the block profile (instruction counts), candidate
// identification at the minimum possible cost and the candidates' TNV
// value profiles. None of it depends on Options.Threshold — the
// threshold only enters the §3.4 cost/benefit test — so one Profile
// serves a whole threshold grid via Select.
//
// A Profile is immutable after NewProfile returns: Select only reads the
// shared tables (and transforms fresh per-call state), so concurrent
// Select calls at different thresholds are safe.
type Profile struct {
	refProg  *prog.Program
	base     *vrp.Result
	cands    []candidate
	profiler *emu.Profiler
	opts     Options // defaults applied; Threshold ignored by Select
}

// NewProfile runs the threshold-independent stages of VRS. trainProg is
// the binary with the profiling input baked in; refProg is the binary to
// transform. The two must share a static code layout (same instruction
// sequence, possibly different immediates/data), which is the builder's
// contract. opts.Threshold is ignored here — pass it to Select.
func NewProfile(trainProg, refProg *prog.Program, opts Options) (*Profile, error) {
	opts.defaults()
	if len(trainProg.Ins) != len(refProg.Ins) {
		return nil, fmt.Errorf("vrs: train and ref binaries have different layouts (%d vs %d instructions)",
			len(trainProg.Ins), len(refProg.Ins))
	}

	// Static analysis of the reference binary.
	base, err := vrp.Analyze(refProg, analysis)
	if err != nil {
		return nil, fmt.Errorf("vrs: baseline VRP: %w", err)
	}

	// Steps 1 and 2 (§3.3) ride one train run, read by one profiler sink:
	// counts for the block profile, and TNV tables over every instruction
	// that could become a candidate whatever its count (profilable).
	// Tables are per instruction, so filtering that set by counts
	// afterwards leaves each candidate's table as if only the candidates
	// had been profiled.
	static := profilable(refProg, base)
	pf := &Profile{refProg: refProg, base: base, profiler: emu.NewProfiler(len(trainProg.Ins), static), opts: opts}
	m := emu.New(trainProg)
	defer m.Release()
	m.Sink = pf.profiler
	if err := m.Run(); err != nil {
		return nil, fmt.Errorf("vrs: train profiling run: %w", err)
	}
	pf.cands = findCandidates(refProg, base, static, pf.profiler.Counts, opts)
	return pf, nil
}

// Counts is the train run's block profile, read from its profiler sink:
// retirements per static instruction. Callers must not modify it.
func (pf *Profile) Counts() []int64 { return pf.profiler.Counts }

// NumCandidates reports how many specialization candidates survived the
// preliminary minimum-cost filter.
func (pf *Profile) NumCandidates() int { return len(pf.cands) }

// Select runs the cheap per-threshold back half of the pipeline — the
// §3.4 energy cost/benefit filter and the code transformation — against
// the shared profile. It performs no emulation; a K-threshold grid over
// one Profile costs one train pass total.
func (pf *Profile) Select(threshold float64) (*Result, error) {
	opts := pf.opts
	opts.Threshold = threshold
	if opts.Threshold == 0 {
		opts.Threshold = 50
	}
	if len(pf.cands) == 0 {
		// Deterministic no-op at every threshold: the transformed program
		// is the reference binary under its baseline analysis.
		return &Result{
			Original:    pf.refProg,
			Transformed: pf.refProg,
			FinalVRP:    pf.base,
			GuardIns:    map[int]bool{},
			SpecIns:     map[int]bool{},
		}, nil
	}

	// Step 3 (§3.4): evaluate profitability with the profiled ranges and
	// transform the survivors. evaluate builds fresh Points from the
	// candidate list, so the shared profile stays untouched.
	points := evaluate(pf.refProg, pf.base, pf.cands, pf.profiler, opts)
	return transform(pf.refProg, pf.base, points, pf.profiler.Counts)
}

// Specialize runs the full VRS pipeline at opts.Threshold: NewProfile
// followed by one Select. Callers evaluating several thresholds should
// hold the Profile and Select per threshold instead, amortizing the train
// emulation across the grid.
func Specialize(trainProg, refProg *prog.Program, opts Options) (*Result, error) {
	pf, err := NewProfile(trainProg, refProg, opts)
	if err != nil {
		return nil, err
	}
	return pf.Select(opts.Threshold)
}
