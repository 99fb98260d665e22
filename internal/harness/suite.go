// Package harness regenerates every table and figure of the paper's
// evaluation (§4): per-experiment drivers run the workload suite through
// the binary optimizer (VRP/VRS), the out-of-order timing model, and the
// operand-gated power model, then print the same rows and series the paper
// reports. Absolute energy values are model units; the experiments compare
// configurations against the same ungated baseline exactly as the paper
// does.
//
// The suite is concurrency-safe: artifacts are memoized with per-key
// singleflight caches (internal/harness/parallel.go), so independent
// builds, analyses and simulations proceed in parallel, and the
// per-workload loops of the table/figure drivers fan out across a bounded
// worker pool. Reports are assembled in suite order, so results are
// byte-identical to a sequential run (Workers = 1).
//
// Simulation follows "one traversal per binary". A variant label
// ("base", "vrp", "vrp-conv", "vrs<θ>") only says how to build a program;
// traversals, simulations and record profiles are keyed by the workload
// and the built binary's identity (store.ProgramIdentity), so labels that
// build one binary share everything below. A binary's retirement records
// are read once, by one live emulation or one streamed store read, and
// fanned out to its record profile (per-static retirement counts, from
// which every width histogram, Table 3 and Figure 6 are integer sums,
// plus Figure 12's value sizes on the base binary) and one fused timing
// pass of the mode group the first request asks for (modeGroups). A
// width-only rewrite (vrp.Result.Apply: "vrp", "vrp-conv", the ablations'
// one-off configurations) retires its base binary's path, so its record
// profile is the base binary's counts over its own widths, and only
// timing it costs a traversal. No trace is kept in memory: a demand for
// a mode the first traversal did not time costs one more traversal.
//
// With a Store attached, a binary's trace is looked up on disk
// (content-addressed by workload, input class and the binary's identity
// hash) and streamed chunk by chunk before anything is emulated; a live
// traversal captures its trace on the side and writes it back. Whichever
// label reaches a binary first, in whichever process, every other label
// that builds it hits the same object. A warm run therefore performs zero
// suite-level emulations and produces byte-identical reports — the
// stored records are exactly the live ones, so the store can never change
// a result, only skip recomputing it.
package harness

import (
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"

	"opgate/internal/emu"
	"opgate/internal/power"
	"opgate/internal/prog"
	"opgate/internal/store"
	"opgate/internal/tracework"
	"opgate/internal/uarch"
	"opgate/internal/vrp"
	"opgate/internal/vrs"
	"opgate/internal/workload"
)

// Thresholds are the paper's VRS cost configurations (Fig. 8's "VRS 110nJ"
// … "VRS 30nJ").
var Thresholds = []float64{110, 90, 70, 50, 30}

// Suite caches the expensive artifacts (built programs, analyses,
// transformed binaries, simulation results) across experiments.
type Suite struct {
	// Quick selects the train inputs for evaluation runs, trimming
	// benchmark time; the full suite evaluates on ref inputs like the
	// paper.
	Quick bool

	// Workers bounds the per-workload fan-out of the experiment drivers;
	// 0 means GOMAXPROCS. Workers = 1 reproduces a sequential run.
	Workers int

	// Synthetics lists extra workload names — typically progen-generated
	// "syn:family/class/seed" registry names — appended to the paper's
	// eight benchmarks in every experiment driver. Set it before the
	// first driver call; names resolve through workload.ByName.
	Synthetics []string

	// Store, when non-nil, persists packed traces across processes: a
	// binary's traversal streams its stored trace instead of emulating,
	// and a live traversal writes its capture back, so a warm run
	// re-emulates nothing (cmd/ogbench -store, cmd/opgated). A capture
	// over emu.DefaultTraceBudget is not stored; that binary stays live.
	Store *store.Store

	Uarch uarch.Config
	Power power.Params

	traceLibState

	progs    memo[progKey, *prog.Program]
	vrps     memo[vrpKey, *vrp.Result]
	profiles memo[string, *vrs.Profile]
	vrss     memo[vrsKey, *vrs.Result]
	variants memo[variantKey, variantBin]
	passes   memo[binKey, traversal]
	families memo[groupKey, []*uarch.Result]

	emuRuns      atomic.Int64
	trainRuns    atomic.Int64
	traversals   atomic.Int64 // traversals of suite binaries, late demands included
	ablationRuns atomic.Int64 // live traversals of one-off ablation binaries
}

type progKey struct {
	name  string
	class workload.InputClass
}

type vrpKey struct {
	name string
	mode vrp.Mode
}

type vrsKey struct {
	name      string
	threshold float64
}

type variantKey struct {
	name    string
	variant string // "base", "vrp", "vrp-conv", "vrs<θ>"
}

// binKey names one distinct binary of a workload by its identity. Every
// traversal, simulation and record-profile memo is keyed by it, so
// variant labels that build the same binary share one traversal, one
// store object, one fused pass per mode group and one record profile.
type binKey struct {
	name string
	id   store.Hash
}

func (k binKey) String() string { return fmt.Sprintf("%s@%.12s", k.name, k.id) }

// variantBin is a resolved variant: the program, the key it is cached by,
// and whether it is a width-only rewrite of the evaluation binary
// (vrp.Result.Apply), whose record profile is the base binary's (records).
type variantBin struct {
	p         *prog.Program
	key       binKey
	widthOnly bool
}

type groupKey struct {
	bin   binKey
	group int // index into modeGroups
}

// NewSuite builds a suite with the paper's machine parameters.
func NewSuite(quick bool) *Suite {
	return &Suite{
		Quick: quick,
		Uarch: uarch.DefaultConfig(),
		Power: power.DefaultParams(),
	}
}

// Names returns the benchmark names in paper order, followed by any
// registered synthetic workloads.
func (s *Suite) Names() []string {
	names := make([]string, 0, 8+len(s.Synthetics))
	for _, w := range workload.All() {
		names = append(names, w.Name)
	}
	return append(names, s.Synthetics...)
}

// evalClass is the input class evaluation runs use.
func (s *Suite) evalClass() workload.InputClass {
	if s.Quick {
		return workload.Train
	}
	return workload.Ref
}

// Program returns (cached) the named benchmark built for an input class.
// Trace-backed workloads resolve to their imported skeleton instead of a
// source build.
func (s *Suite) Program(name string, class workload.InputClass) (*prog.Program, error) {
	return s.progs.do(progKey{name, class}, func() (*prog.Program, error) {
		if workload.IsTrace(name) {
			return s.traceProgram(name, class)
		}
		w, err := workload.ByName(name)
		if err != nil {
			return nil, err
		}
		p, err := w.Build(class)
		if err != nil {
			return nil, fmt.Errorf("harness: build %s/%v: %w", name, class, err)
		}
		return p, nil
	})
}

// VRP returns (cached) the analysis of the evaluation binary. A trace
// skeleton has no analyzable control flow (only the executed path is
// known), so trace-backed workloads are gated here.
func (s *Suite) VRP(name string, mode vrp.Mode) (*vrp.Result, error) {
	if workload.IsTrace(name) {
		return nil, traceOnlyErr(name, "VRP analysis")
	}
	return s.vrps.do(vrpKey{name, mode}, func() (*vrp.Result, error) {
		p, err := s.Program(name, s.evalClass())
		if err != nil {
			return nil, err
		}
		r, err := vrp.Analyze(p, vrp.Options{Mode: mode})
		if err != nil {
			return nil, fmt.Errorf("harness: vrp %s: %w", name, err)
		}
		return r, nil
	})
}

// vrsProfile returns (cached) the threshold-independent VRS profile of a
// workload: the train emulation, block/value profiles, baseline VRP and
// candidate set shared by every threshold's specialization. One profile
// serves the whole threshold grid — a K-point sweep performs exactly one
// train emulation per workload.
func (s *Suite) vrsProfile(name string) (*vrs.Profile, error) {
	if workload.IsTrace(name) {
		// Profiling emulates the train binary live; a trace workload has
		// neither a train binary nor a live form.
		return nil, traceOnlyErr(name, "VRS profiling")
	}
	return s.profiles.do(name, func() (*vrs.Profile, error) {
		trainP, err := s.Program(name, workload.Train)
		if err != nil {
			return nil, err
		}
		refP, err := s.Program(name, s.evalClass())
		if err != nil {
			return nil, err
		}
		s.trainRuns.Add(1)
		pf, err := vrs.NewProfile(trainP, refP, vrs.Options{Power: s.Power})
		if err != nil {
			return nil, fmt.Errorf("harness: vrs profile %s: %w", name, err)
		}
		return pf, nil
	})
}

// VRS returns (cached) the specialization of the evaluation binary at a
// threshold, profiled on the train binary (the paper's methodology). The
// train profile is shared across thresholds, so only the first threshold
// of a workload pays the train emulation.
func (s *Suite) VRS(name string, threshold float64) (*vrs.Result, error) {
	return s.vrss.do(vrsKey{name, threshold}, func() (*vrs.Result, error) {
		pf, err := s.vrsProfile(name)
		if err != nil {
			return nil, err
		}
		r, err := pf.Select(threshold)
		if err != nil {
			return nil, fmt.Errorf("harness: vrs %s@%v: %w", name, threshold, err)
		}
		return r, nil
	})
}

// variantBinary resolves (cached) a named program variant for simulation,
// together with its identity — computed once per label, here.
func (s *Suite) variantBinary(name, variant string) (variantBin, error) {
	return s.variants.do(variantKey{name, variant}, func() (variantBin, error) {
		p, widthOnly, err := s.buildVariant(name, variant)
		if err != nil {
			return variantBin{}, err
		}
		return variantBin{p, binKey{name, store.ProgramIdentity(p)}, widthOnly}, nil
	})
}

// buildVariant builds a named program variant (variantBinary's miss path)
// and says whether it is a width-only rewrite of the evaluation binary.
func (s *Suite) buildVariant(name, variant string) (*prog.Program, bool, error) {
	if workload.IsTrace(name) && variant != "base" {
		// Every non-base variant is a re-optimized rebuild; a trace
		// workload's only binary is its skeleton.
		return nil, false, traceOnlyErr(name, "variant "+variant)
	}
	switch variant {
	case "base":
		p, err := s.Program(name, s.evalClass())
		return p, false, err
	case "vrp", "vrp-conv":
		mode := vrp.Useful
		if variant == "vrp-conv" {
			mode = vrp.Conventional
		}
		r, err := s.VRP(name, mode)
		if err != nil {
			return nil, false, err
		}
		return r.Apply(), true, nil
	default: // "vrs<threshold>"
		// Parse the whole suffix and insist on the canonical spelling
		// (vrsVariant(th) == variant): Sscanf-style prefix matching
		// would let "vrs50junk" alias vrs50, and a non-canonical
		// spelling like "vrs050" would give an existing variant a
		// second label.
		suffix, ok := strings.CutPrefix(variant, "vrs")
		if !ok {
			return nil, false, fmt.Errorf("harness: unknown variant %q", variant)
		}
		th, err := strconv.ParseFloat(suffix, 64)
		if err != nil || !(th > 0) || vrsVariant(th) != variant {
			return nil, false, fmt.Errorf("harness: unknown variant %q", variant)
		}
		r, err := s.VRS(name, th)
		if err != nil {
			return nil, false, err
		}
		return r.Apply(), false, nil
	}
}

// modeGroups are the mode sets one fused timing pass accrues, one per
// binary role, as the paper runs them: the ungated baseline and the
// hardware schemes (Figures 13/14) on the unmodified binary, software
// gating and the cooperative schemes (Figures 3, 8–12, 15) on the VRP/VRS
// binaries. A role is a key, not a label (roleGroup). The base group
// holds every mode: the opcode ablation's base-ISA row gates the
// unmodified binary in software (§4.3: without ALU widths VRP narrows
// nothing, so that binary is usually the workload's own), and with the
// cooperative pair on top no sequence of Sim calls on it needs a second
// traversal. So each binary a full evaluation simulates is timed in one
// fused pass; a run reading a single mode, Figure 3 alone, accrues meters
// it never reads.
var modeGroups = [...][]power.GatingMode{
	{power.GateNone, power.GateHWSize, power.GateHWSignificance, power.GateSoftware,
		power.GateCooperative, power.GateCooperativeSig},
	{power.GateSoftware, power.GateCooperative, power.GateCooperativeSig},
}

// roleGroup is the mode group of a binary's role (base: the workload's
// unmodified binary).
func roleGroup(base bool) int {
	if base {
		return 0
	}
	return 1
}

// modeGroup locates a gating mode for a binary of the given role: group
// index and index within it. The role's own group wins when it holds the
// mode.
func modeGroup(mode power.GatingMode, base bool) (int, int) {
	role := roleGroup(base)
	for _, gi := range [...]int{role, 1 - role} {
		if mi := slices.Index(modeGroups[gi], mode); mi >= 0 {
			return gi, mi
		}
	}
	return -1, -1
}

// Emulations returns how many live emulations of suite binaries the suite
// has run: every traversal no store served, first or late (Sim). A full
// evaluation emulates each distinct simulated binary (workload, identity)
// once, however many labels build it; tests assert that contract against
// this probe. Not counted: the train profiling runs inside VRS
// construction (TrainEmulations) and the ablations' live timing passes
// (ablationRun).
func (s *Suite) Emulations() int64 { return s.emuRuns.Load() }

// TrainEmulations returns how many VRS train profiling emulations the
// suite has performed — one per workload whose VRS profile has been
// built, however many thresholds were selected from it. A K-threshold
// sweep leaves this at exactly len(Names()): the profile-reuse probe.
func (s *Suite) TrainEmulations() int64 { return s.trainRuns.Load() }

// isBase reports whether b is its workload's unmodified binary — its
// role, by key, whichever label or ablation configuration built it.
func (s *Suite) isBase(b variantBin) (bool, error) {
	base, err := s.variantBinary(b.key.name, "base")
	return err == nil && b.key == base.key, err
}

// Sim returns (cached) the timing+energy simulation of a program variant
// under a gating mode: one meter of a fused pass over the variant
// binary's records. A Sim call that reaches a binary first makes its
// traversal time the mode's group (modeGroup). Whatever group the first
// traversal timed serves every mode it holds; a demand for a mode it
// lacks arrives late and costs one more traversal, timing the mode's
// group.
func (s *Suite) Sim(name, variant string, mode power.GatingMode) (*uarch.Result, error) {
	b, err := s.variantBinary(name, variant)
	if err != nil {
		return nil, err
	}
	isBase, err := s.isBase(b)
	if err != nil {
		return nil, err
	}
	gi, mi := modeGroup(mode, isBase)
	if gi < 0 {
		return nil, fmt.Errorf("harness: sim %v: unknown gating mode %v", b.key, mode)
	}
	first, err := s.firstPass(b, isBase, gi)
	if err != nil {
		return nil, err
	}
	if i := slices.Index(modeGroups[first.group], mode); i >= 0 {
		gi, mi = first.group, i
	}
	rs, err := s.families.do(groupKey{b.key, gi}, func() ([]*uarch.Result, error) {
		if gi == first.group {
			return first.rs, nil
		}
		return s.walk(b, nil, gi)
	})
	if err != nil {
		return nil, err
	}
	return rs[mi], nil
}

// records returns (cached) the record profile of a program variant's
// binary.
func (s *Suite) records(name, variant string) (*recProfile, error) {
	b, err := s.variantBinary(name, variant)
	if err != nil {
		return nil, err
	}
	return s.binRecords(b)
}

// binRecords returns (cached) the record profile of b. A width-only
// rewrite retires its base binary's exact path (difftest.CheckRewrites),
// so its profile is the base binary's counts over its own widths and
// costs it no traversal. Any other binary's first traversal times its
// role group alongside.
func (s *Suite) binRecords(b variantBin) (*recProfile, error) {
	isBase, err := s.isBase(b)
	if err != nil {
		return nil, err
	}
	if b.widthOnly && !isBase {
		base, err := s.records(b.key.name, "base")
		if err != nil {
			return nil, err
		}
		return &recProfile{p: b.p, counts: base.counts}, nil
	}
	first, err := s.firstPass(b, isBase, roleGroup(isBase))
	return first.prof, err
}

// traversal is what a binary's first traversal leaves behind: its record
// profile and the results of the mode group timed alongside.
type traversal struct {
	prof  *recProfile
	group int
	rs    []*uarch.Result
}

// firstPass returns (cached) a binary's first traversal. Whichever
// request arrives first fixes the group it times; concurrent requests
// share the one traversal.
func (s *Suite) firstPass(b variantBin, isBase bool, group int) (traversal, error) {
	return s.passes.do(b.key, func() (traversal, error) {
		prof := newRecProfile(b.p, isBase)
		rs, err := s.walk(b, prof, group)
		return traversal{prof, group, rs}, err
	})
}

// walk makes one traversal of b feeding prof (when non-nil) and a fused
// timing pass of a mode group, whose results it returns.
func (s *Suite) walk(b variantBin, prof *recProfile, group int) ([]*uarch.Result, error) {
	sim, err := s.newSim(b, modeGroups[group])
	if err != nil {
		return nil, err
	}
	err = s.traverse(b, emu.RecFunc(func(rb emu.RecBatch) {
		if prof != nil {
			prof.ConsumeRecs(rb)
		}
		sim.ConsumeRecs(rb)
	}))
	if err != nil {
		return nil, err
	}
	return sim.FinishAll(), nil
}

// newSim starts a fused timing pass of b accruing every mode of modes.
func (s *Suite) newSim(b variantBin, modes []power.GatingMode) (*uarch.Sim, error) {
	sim, err := uarch.NewMulti(b.p, s.Uarch, s.Power, modes)
	if err != nil {
		return nil, fmt.Errorf("harness: sim %v/%v: %w", b.key, modes, err)
	}
	return sim, nil
}

// recProfile is what the evaluation reads of a binary's records besides
// timing. A record's Op and WBytes duplicate its static instruction, so
// per-static retirement counts determine every width histogram, Table 3
// and Figure 6 as integer sums. Only Figure 12 reads record values: the
// significant-byte tally of destination writes, kept for a workload's
// base binary alone.
type recProfile struct {
	p      *prog.Program
	counts []int64   // retirements per static instruction
	sizes  *[9]int64 // destination writes by significant bytes; nil unless base
}

func newRecProfile(p *prog.Program, sizes bool) *recProfile {
	r := &recProfile{p: p, counts: make([]int64, len(p.Ins))}
	if sizes {
		r.sizes = new([9]int64)
	}
	return r
}

// ConsumeRecs implements emu.Sink.
func (r *recProfile) ConsumeRecs(b emu.RecBatch) {
	for _, idx := range b.Idx {
		r.counts[idx]++
	}
	if r.sizes == nil {
		return
	}
	for i, fl := range b.Flags {
		if fl&emu.RecWritesDest != 0 {
			r.sizes[power.SignificantBytes(b.Value[i])]++
		}
	}
}

// widths is the dynamic width histogram: retired width-bearing
// instructions by operand width.
func (r *recProfile) widths() vrp.WidthHistogram {
	var h vrp.WidthHistogram
	for idx, n := range r.counts {
		if in := &r.p.Ins[idx]; n > 0 && vrp.CountsWidth(in.Op) {
			h.Add(in.Width, n)
		}
	}
	return h
}

// storeLabel is the variant label of every suite trace address. The
// identity in the address already names the binary, so the label is one
// constant and any variant label that builds a stored binary hits its
// object. It is "base" because imported traces (internal/tracework) are
// stored under that label.
const storeLabel = "base"

// traceKey is the store address of a binary's trace.
func (s *Suite) traceKey(b variantBin) store.Key {
	return store.TraceKey(b.key.name, storeLabel, s.evalClass().String(), b.key.id)
}

// traverse makes one traversal of a binary's retirement records into
// sink: a streamed read when the store holds the binary's trace, else one
// live emulation. With a store attached, a recorder rides the live pass
// and the capture is written back; no trace outlives the call. Imported
// trace workloads have no live form, so for them a store miss is an
// error.
func (s *Suite) traverse(b variantBin, sink emu.Sink) error {
	s.traversals.Add(1)
	if s.Store != nil && s.Store.ReadTrace(s.traceKey(b), b.p, b.key.id, sink) {
		return nil
	}
	if workload.IsTrace(b.key.name) {
		// The skeleton resolved but its blob is gone (eviction,
		// corruption): same remedy as never imported.
		return &tracework.NotImportedError{Name: b.key.name, Class: s.evalClass().String()}
	}
	s.emuRuns.Add(1)
	m := emu.New(b.p)
	defer m.Release()
	m.Sink = sink
	var rec *emu.TraceRecorder
	if s.Store != nil {
		rec = emu.NewTraceRecorder(b.p)
		rec.SetRider(sink)
		m.Sink = rec
	}
	if err := m.Run(); err != nil {
		return fmt.Errorf("harness: emulate %v: %w", b.key, err)
	}
	if rec == nil {
		return nil
	}
	tr, err := rec.Trace()
	if errors.Is(err, emu.ErrTraceBudget) {
		return nil // over budget: nothing is stored
	}
	if err != nil {
		// A genuine capture defect is not an over-budget miss —
		// surfacing it beats silently storing nothing forever.
		return fmt.Errorf("harness: trace %v: %w", b.key, err)
	}
	// Best-effort write-back: a full disk or unwritable root must not
	// fail the run (the store tallies PutErrors).
	_ = s.Store.PutTrace(s.traceKey(b), tr, b.key.id)
	return nil
}

// Baseline returns the ungated simulation of the original binary.
func (s *Suite) Baseline(name string) (*uarch.Result, error) {
	return s.Sim(name, "base", power.GateNone)
}

// EnergySaving returns the fractional whole-processor energy saving of a
// (variant, mode) configuration against the baseline.
func (s *Suite) EnergySaving(name, variant string, mode power.GatingMode) (float64, error) {
	base, err := s.Baseline(name)
	if err != nil {
		return 0, err
	}
	g, err := s.Sim(name, variant, mode)
	if err != nil {
		return 0, err
	}
	_, total := power.Savings(base.Energy, g.Energy)
	return total, nil
}

// ED2Saving returns the fractional energy-delay² improvement of a
// configuration against the baseline.
func (s *Suite) ED2Saving(name, variant string, mode power.GatingMode) (float64, error) {
	base, err := s.Baseline(name)
	if err != nil {
		return 0, err
	}
	g, err := s.Sim(name, variant, mode)
	if err != nil {
		return 0, err
	}
	return power.EnergyDelay2Saving(base.Energy.Total(), base.Cycles, g.Energy.Total(), g.Cycles), nil
}

// DynWidthHistogram returns the dynamic width histogram of a program
// variant, summed from its binary's record profile (records): a
// width-only rewrite's costs no traversal of its own, and any other
// binary's first traversal times its role group alongside.
func (s *Suite) DynWidthHistogram(name, variant string) (vrp.WidthHistogram, error) {
	r, err := s.records(name, variant)
	if err != nil {
		return vrp.WidthHistogram{}, err
	}
	return r.widths(), nil
}
