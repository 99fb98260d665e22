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
// Steps 1 and 2 and the threshold-free part of step 3 — each
// candidate's score, Savings·Freq − Cost — run once per Profile. The
// threshold shifts every score by the same amount, so the points it
// selects are a prefix of one ranking: Profile.Select finds the prefix by
// binary search and transforms each distinct prefix once, however many
// thresholds select it.
//
// The guard emitted before a specialized region is the paper's
// (x>=min && x<=max) test. Because the guard is an ordinary compare+branch
// sequence, re-running VRP on the transformed program narrows the clone
// through standard branch refinement — no side-channel range injection is
// needed.
package vrs

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"sync"

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
	Points      []Point // every candidate, by descending Benefit

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

	sel *selection // the selection this result views; nil outside Select
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
// width assignment — the binary the evaluation runs. Every result of one
// selection (every threshold that selects the same points) shares one
// binary, built on the first call; callers must not modify it.
func (r *Result) Apply() *prog.Program {
	if r.sel == nil {
		return r.FinalVRP.Apply()
	}
	r.sel.apply.Do(func() { r.sel.bin = r.FinalVRP.Apply() })
	return r.sel.bin
}

// Profile is the threshold-independent part of the VRS pipeline: the
// baseline analysis of the reference binary, then, from one train
// emulation, the block profile (instruction counts), candidate
// identification at the minimum possible cost, the candidates' TNV value
// profiles and their §3.4 scores, Savings·Freq − Cost. None of it
// depends on the threshold, which shifts every score by the same amount,
// so one Profile serves a whole threshold grid via Select.
//
// The scored points are ranked once, by score and then instruction index.
// The transform walks them greedily in that order and each decision
// depends only on earlier points, so the selection at a threshold is the
// transform of the ranked prefix whose scores exceed it. A Profile
// transforms each prefix at most once, on the first Select that needs it,
// and shares the result with every threshold that selects the same
// prefix. Everything else is fixed when NewProfile returns, and concurrent
// Select calls at any thresholds are safe.
type Profile struct {
	refProg  *prog.Program
	base     *vrp.Result
	profiler *emu.Profiler
	points   []Point     // every candidate's point, in candidate order, before any threshold
	ranked   []rankedIdx // the scored points: score descending, then InsIdx ascending
	prefixes []selection // prefixes[k] transforms ranked[:k]
}

// rankedIdx is a scored point: its index in Profile.points and its
// score, Savings·Freq − Cost.
type rankedIdx struct {
	at    int
	score float64
}

// selection is the transform of one ranked prefix, built once and shared
// by every threshold that selects it. Its result's Points carry the
// prefix's outcomes and regions in candidate order; Select adds each
// threshold's Benefit.
type selection struct {
	once  sync.Once
	res   *Result
	err   error
	apply sync.Once
	bin   *prog.Program // res.Apply(), built on first use
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
	pf := &Profile{refProg: refProg, base: base, profiler: emu.NewProfiler(len(trainProg.Ins), static)}
	m := emu.New(trainProg)
	defer m.Release()
	m.Sink = pf.profiler
	if err := m.Run(); err != nil {
		return nil, fmt.Errorf("vrs: train profiling run: %w", err)
	}
	cands := findCandidates(refProg, base, static, pf.profiler.Counts, opts)

	// Step 3 (§3.4) up to the threshold: score every candidate once.
	pf.points, pf.ranked = score(refProg, base, cands, pf.profiler, opts)
	slices.SortFunc(pf.ranked, func(a, b rankedIdx) int {
		if c := cmp.Compare(b.score, a.score); c != 0 {
			return c
		}
		return cmp.Compare(pf.points[a.at].InsIdx, pf.points[b.at].InsIdx)
	})
	pf.prefixes = make([]selection, len(pf.ranked)+1)
	return pf, nil
}

// Counts is the train run's block profile, read from its profiler sink:
// retirements per static instruction. Callers must not modify it.
func (pf *Profile) Counts() []int64 { return pf.profiler.Counts }

// NumCandidates reports how many specialization candidates survived the
// preliminary minimum-cost filter.
func (pf *Profile) NumCandidates() int { return len(pf.points) }

// Select is the per-threshold back half of the pipeline: the §3.4
// cost/benefit filter and the code transformation, against the shared
// profile. A point is profitable when its score minus the threshold is
// positive; the profitable points are a prefix of the ranking, found by
// binary search, and the prefix's transform is built once per Profile.
// Select itself only builds the threshold's Points view. It performs no
// emulation; a K-threshold grid over one Profile costs one train pass
// and one transform per distinct selection.
func (pf *Profile) Select(threshold float64) (*Result, error) {
	if threshold == 0 {
		threshold = 50
	}
	k := sort.Search(len(pf.ranked), func(i int) bool { return !(pf.ranked[i].score-threshold > 0) })
	sel := &pf.prefixes[k]
	sel.once.Do(func() { sel.res, sel.err = pf.transformPrefix(k, sel) })
	if sel.err != nil {
		return nil, sel.err
	}
	r := *sel.res
	r.Points = slices.Clone(sel.res.Points)
	for _, rk := range pf.ranked {
		r.Points[rk.at].Benefit = rk.score - threshold
	}
	// The view lists the points as a from-scratch evaluation at the
	// threshold did: candidate order, sorted by descending Benefit.
	sort.Slice(r.Points, func(a, b int) bool { return r.Points[a].Benefit > r.Points[b].Benefit })
	return &r, nil
}

// transformPrefix transforms the first k ranked points (Select's miss
// path).
func (pf *Profile) transformPrefix(k int, sel *selection) (*Result, error) {
	points := slices.Clone(pf.points)
	picks := make([]*Point, k)
	for i, rk := range pf.ranked[:k] {
		picks[i] = &points[rk.at]
	}
	res, err := transform(pf.refProg, pf.base, picks, pf.profiler.Counts)
	if err != nil {
		return nil, err
	}
	res.Points, res.sel = points, sel
	return res, nil
}

// Specialize runs the full VRS pipeline at opts.Threshold: NewProfile
// followed by one Select. Callers evaluating several thresholds should
// hold the Profile and Select per threshold instead, amortizing the train
// emulation and the transforms across the grid.
func Specialize(trainProg, refProg *prog.Program, opts Options) (*Result, error) {
	pf, err := NewProfile(trainProg, refProg, opts)
	if err != nil {
		return nil, err
	}
	return pf.Select(opts.Threshold)
}
