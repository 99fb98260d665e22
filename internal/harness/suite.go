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
// pass of the binary's role group (modeGroups): every mode on the
// unmodified binary, software and cooperative gating on a rewrite. A
// width-only rewrite (vrp.Result.Apply: "vrp", "vrp-conv", a "vrs<θ>"
// that selects nothing, every ablation row) retires its base binary's
// path with the same opcodes, so its record profile is the base binary's
// counts over its own widths, its timing is the base binary's, and the
// base binary's pass times the opcode ablation's one-off rows as software
// overlays. Of the width-only rewrites only the vrp binary costs a
// traversal, and that traversal runs no timing core: it feeds an
// energy-only sink (uarch.NewRewrite) that takes the base binary's pass
// for timing and charges the role group's value-driven meters alone. No
// trace is kept in memory, and no request can cost a binary a second
// traversal: a mode outside its role group is an error.
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
	"opgate/internal/isa"
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

	traceLibState

	progs    memo[progKey, *prog.Program]
	vrps     memo[vrpKey, *vrp.Result]
	rewrites memo[rewriteKey, []isa.Width]
	profiles memo[string, *vrs.Profile]
	variants memo[variantKey, variantBin]
	ids      memo[*prog.Program, store.Hash]
	passes   memo[binKey, traversal]

	emuRuns    atomic.Int64
	trainRuns  atomic.Int64
	traversals atomic.Int64 // traversals of suite binaries, one per binPass
	cores      atomic.Int64 // timing-core passes: binPasses of binaries no rewritePass serves
}

type progKey struct {
	name  string
	class workload.InputClass
}

type vrpKey struct {
	name string
	mode vrp.Mode
}

type rewriteKey struct {
	name string
	opts vrp.Options
}

type variantKey struct {
	name    string
	variant string // "base", "vrp", "vrp-conv", "vrs<θ>"
}

// binKey names one distinct binary of a workload by its identity. Every
// traversal, simulation and record-profile memo is keyed by it, so
// variant labels that build the same binary share one traversal, one
// store object, one fused timing pass and one record profile.
type binKey struct {
	name string
	id   store.Hash
}

func (k binKey) String() string { return fmt.Sprintf("%s@%.12s", k.name, k.id) }

// variantBin is a resolved variant: the program, the key it is cached by,
// and whether it is a width-only rewrite of the evaluation binary
// (vrp.Result.Apply), whose record profile is the base binary's (records)
// and whose pass takes the base binary's timing (binPass). Every label
// that builds a binary marks it alike, so whichever reaches it first
// decides nothing.
type variantBin struct {
	p         *prog.Program
	key       binKey
	widthOnly bool
}

// NewSuite builds a suite with the paper's machine parameters.
func NewSuite(quick bool) *Suite {
	return &Suite{Quick: quick}
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

// VRP returns (cached) the analysis of the evaluation binary.
func (s *Suite) VRP(name string, mode vrp.Mode) (*vrp.Result, error) {
	return s.vrps.do(vrpKey{name, mode}, func() (*vrp.Result, error) {
		return s.analyze(name, vrp.Options{Mode: mode})
	})
}

// analyze runs VRP over the evaluation binary under opts (VRP's miss path
// and the ablations' one-off configurations). A trace skeleton has no
// analyzable control flow (only the executed path is known), so
// trace-backed workloads are gated here.
func (s *Suite) analyze(name string, opts vrp.Options) (*vrp.Result, error) {
	if workload.IsTrace(name) {
		return nil, traceOnlyErr(name, "VRP analysis")
	}
	p, err := s.Program(name, s.evalClass())
	if err != nil {
		return nil, err
	}
	r, err := vrp.Analyze(p, opts)
	if err != nil {
		return nil, fmt.Errorf("harness: vrp %s: %w", name, err)
	}
	return r, nil
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
		pf, err := vrs.NewProfile(trainP, refP, vrs.Options{})
		if err != nil {
			return nil, fmt.Errorf("harness: vrs profile %s: %w", name, err)
		}
		return pf, nil
	})
}

// VRS returns the specialization of the evaluation binary at a
// threshold, profiled on the train binary (the paper's methodology). The
// train profile is shared across thresholds, so only the first threshold
// of a workload pays the train emulation, and the profile transforms
// each distinct selection once (vrs.Profile.Select).
func (s *Suite) VRS(name string, threshold float64) (*vrs.Result, error) {
	pf, err := s.vrsProfile(name)
	if err != nil {
		return nil, err
	}
	r, err := pf.Select(threshold)
	if err != nil {
		return nil, fmt.Errorf("harness: vrs %s@%v: %w", name, threshold, err)
	}
	return r, nil
}

// variantBinary resolves (cached) a named program variant for simulation,
// together with its identity — hashed once per distinct program, however
// many labels build it (every vrs<θ> of one selection shares its binary).
func (s *Suite) variantBinary(name, variant string) (variantBin, error) {
	return s.variants.do(variantKey{name, variant}, func() (variantBin, error) {
		p, widthOnly, err := s.buildVariant(name, variant)
		if err != nil {
			return variantBin{}, err
		}
		id, err := s.ids.do(p, func() (store.Hash, error) { return store.ProgramIdentity(p), nil })
		if err != nil {
			return variantBin{}, err
		}
		return variantBin{p, binKey{name, id}, widthOnly}, nil
	})
}

// buildVariant builds a named program variant (variantBinary's miss path)
// and says whether it is a width-only rewrite of the evaluation binary.
// A trace workload's only binary is its skeleton: every other variant is
// a re-optimized rebuild, which VRP and VRS profiling refuse for it.
func (s *Suite) buildVariant(name, variant string) (*prog.Program, bool, error) {
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
		// A selection of nothing transforms nothing: its binary is
		// the evaluation binary under the baseline analysis, the
		// vrp label's width-only rewrite.
		return r.Apply(), r.NumSpecialized() == 0, nil
	}
}

// modeGroups are the mode sets one fused timing pass accrues, one per
// binary role, as the paper runs them: the ungated baseline and the
// hardware schemes (Figures 13/14) on the unmodified binary, software
// gating and the cooperative schemes (Figures 3, 8–12, 15) on the VRP/VRS
// binaries. A role is a key, not a label (roleGroup), and it fixes the
// only modes Sim times a binary under. The base group holds every mode:
// a vrp or vrs<θ> label builds the unmodified binary whenever nothing
// narrows, and the opcode ablation's base-ISA row gates that binary in
// software (§4.3: without ALU widths VRP narrows nothing), so every
// figure's request on it is served from its one pass. That pass also
// times the opcode ablation's other one-off rows, as software overlays
// (binPass). A run reading a single mode, Figure 3 alone, accrues meters
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

// Emulations returns how many live emulations of suite binaries the suite
// has run: every traversal no store served. A full evaluation emulates
// each distinct simulated binary (workload, identity) once, however many
// labels build it, and nothing else: the ablations' one-off binaries ride
// their base binary's pass. Tests assert that contract against this
// probe. Not counted: the train profiling runs inside VRS construction
// (TrainEmulations).
func (s *Suite) Emulations() int64 { return s.emuRuns.Load() }

// TrainEmulations returns how many VRS train profiling emulations the
// suite has performed — one per workload whose VRS profile has been
// built, however many thresholds were selected from it. A K-threshold
// sweep leaves this at exactly len(Names()): the profile-reuse probe.
func (s *Suite) TrainEmulations() int64 { return s.trainRuns.Load() }

// isBase reports whether b is its workload's unmodified binary — its
// role, by key, whichever label built it.
func (s *Suite) isBase(b variantBin) (bool, error) {
	base, err := s.variantBinary(b.key.name, "base")
	return err == nil && b.key == base.key, err
}

// Sim returns the timing+energy simulation of a program variant under a
// gating mode: one meter of the fused pass over the variant binary's
// records, which times every mode of the binary's role group (modeGroups).
// A mode outside that group is an error and starts no traversal.
func (s *Suite) Sim(name, variant string, mode power.GatingMode) (*uarch.Result, error) {
	b, err := s.variantBinary(name, variant)
	if err != nil {
		return nil, err
	}
	isBase, err := s.isBase(b)
	if err != nil {
		return nil, err
	}
	mi := slices.Index(modeGroups[roleGroup(isBase)], mode)
	if mi < 0 {
		return nil, fmt.Errorf("harness: sim %v: gating mode %v is not timed on a binary of this role", b.key, mode)
	}
	t, err := s.binPass(b, isBase)
	if err != nil {
		return nil, err
	}
	return t.rs[mi], nil
}

// records returns (cached) the record profile of a program variant's
// binary. A width-only rewrite retires its base binary's exact path
// (difftest.CheckRewrites), so its profile is the base binary's counts
// over its own widths and costs it no traversal. Any other binary's
// profile rides its one pass.
func (s *Suite) records(name, variant string) (*recProfile, error) {
	b, err := s.variantBinary(name, variant)
	if err != nil {
		return nil, err
	}
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
	t, err := s.binPass(b, isBase)
	return t.prof, err
}

// traversal is what a binary's one traversal leaves behind: its record
// profile (nil on a width-only rewrite, which reads its base binary's),
// the results of its pass (its role group's modes, then its overlays)
// and, on a workload's base binary, the index in rs of each overlaid
// configuration's result.
type traversal struct {
	prof *recProfile
	rs   []*uarch.Result
	at   []int
}

// binPass returns (cached) a binary's one traversal, feeding its record
// profile and a fused timing pass of its role group, plus on a base
// binary the overlays; concurrent requests share it. A width-only
// rewrite's traversal feeds neither: it takes its base binary's pass,
// whose timing is its own, and charges only its value-driven energy
// (uarch.NewRewrite). Its record profile is the base's (records).
func (s *Suite) binPass(b variantBin, isBase bool) (traversal, error) {
	return s.passes.do(b.key, func() (traversal, error) {
		modes := modeGroups[roleGroup(isBase)]
		if b.widthOnly && !isBase {
			return s.rewritePass(b, modes)
		}
		s.cores.Add(1)
		var widths [][]isa.Width
		var at []int
		if isBase && !workload.IsTrace(b.key.name) {
			var err error
			if widths, at, err = s.overlays(b, modes); err != nil {
				return traversal{}, err
			}
		}
		sim, err := uarch.NewMulti(b.p, uarch.DefaultConfig(), power.DefaultParams(), modes, widths...)
		if err != nil {
			return traversal{}, fmt.Errorf("harness: sim %v/%v: %w", b.key, modes, err)
		}
		prof := newRecProfile(b.p, isBase)
		err = s.traverse(b, emu.RecFunc(func(rb emu.RecBatch) {
			prof.ConsumeRecs(rb)
			sim.ConsumeRecs(rb)
		}))
		if err != nil {
			return traversal{}, err
		}
		return traversal{prof, sim.FinishAll(), at}, nil
	})
}

// rewritePass is binPass of a width-only rewrite b: its base binary's
// pass, then one traversal of b into an energy-only sink.
func (s *Suite) rewritePass(b variantBin, modes []power.GatingMode) (traversal, error) {
	base, err := s.variantBinary(b.key.name, "base")
	if err != nil {
		return traversal{}, err
	}
	t, err := s.binPass(base, true)
	if err != nil {
		return traversal{}, err
	}
	sink, err := uarch.NewRewrite(b.p, power.DefaultParams(), modes, t.rs[0])
	if err != nil {
		return traversal{}, fmt.Errorf("harness: sim %v/%v: %w", b.key, modes, err)
	}
	if err := s.traverse(b, sink); err != nil {
		return traversal{}, err
	}
	return traversal{rs: sink.FinishAll()}, nil
}

// overlays resolves the overlaid configurations on a workload's base
// binary b. A width-only rewrite retires b's path with b's opcodes, so a
// software overlay of its widths on b's pass times it bit for bit
// (uarch.NewMulti). overlays returns the widths of each configuration
// whose widths differ from b's and, per configuration, the index of its
// result in the pass: b's own GateSoftware meter when the widths match,
// as the base ISA's do on every kernel.
func (s *Suite) overlays(b variantBin, modes []power.GatingMode) ([][]isa.Width, []int, error) {
	var widths [][]isa.Width
	at := make([]int, len(overlaid))
	for k, opts := range overlaid {
		w, err := s.rewriteWidths(b.key.name, opts)
		if err != nil {
			return nil, nil, err
		}
		at[k] = slices.Index(modes, power.GateSoftware)
		for i := range b.p.Ins {
			if b.p.Ins[i].Width != w[i] {
				at[k] = len(modes) + len(widths)
				widths = append(widths, w)
				break
			}
		}
	}
	return widths, at, nil
}

// recProfile is what the evaluation reads of a binary's records besides
// timing. A record's Op and WBytes duplicate its static instruction, so
// per-static retirement counts determine every width histogram, Table 3
// and Figure 6 as integer sums. Only Figure 12 reads record values: the
// significant-byte tally of destination writes, kept for a workload's
// base binary alone.
type recProfile struct {
	p      *prog.Program
	counts []int64     // retirements per static instruction
	sizes  *[9]int64   // destination writes by significant bytes; nil unless base
	w      []isa.Width // a width-only rewrite's widths, replacing p's; nil for p's own
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
			w := in.Width
			if r.w != nil {
				w = r.w[idx]
			}
			h.Add(w, n)
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
// binary's rides its one pass.
func (s *Suite) DynWidthHistogram(name, variant string) (vrp.WidthHistogram, error) {
	r, err := s.records(name, variant)
	if err != nil {
		return vrp.WidthHistogram{}, err
	}
	return r.widths(), nil
}
