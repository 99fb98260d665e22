// Package difftest asserts the simulation substrate's core equivalence
// invariants on arbitrary generated programs:
//
//   - batched Run, per-Step execution and Trace.Replay deliver the same
//     retirement stream and the same architectural outcome;
//   - a fused uarch.RunModes pass is bit-identical to independent
//     per-mode uarch.Run calls;
//   - a width-only VRP rewrite (vrp.Result.Apply) retires its base
//     binary's exact path; a software overlay carrying its widths
//     (uarch.NewMulti), fed the base binary's records, times it bit for
//     bit; and so does its energy-only sink (uarch.NewRewrite), fed its
//     own records and the base binary's timing result.
//
// The eight hand-built kernels exercise these invariants on 16 fixed
// (workload, input) points; driven by progen seeds, difftest turns them
// into properties over an unbounded program space. The package is shared
// by the differential unit tests, the FuzzDiffExec native fuzz target and
// the CI seed sweep.
package difftest

import (
	"bytes"
	"fmt"
	"math"

	"opgate/internal/emu"
	"opgate/internal/isa"
	"opgate/internal/power"
	"opgate/internal/prog"
	"opgate/internal/progen"
	"opgate/internal/uarch"
	"opgate/internal/vrp"
)

// outcome is the observable result of one execution: the flattened
// retirement stream plus the architectural end state.
type outcome struct {
	recs   []rec
	output []byte
	mem    []byte
	dyn    int64
	regs   [32]int64
}

// rec is one retirement record, flattened so streams compare with ==.
type rec struct {
	idx, next               int32
	op, wbytes, flags       uint8
	addr, value, srcA, srcB int64
}

// collect copies every retired record out of the machine-owned batches,
// then hands each batch on to the sinks.
func collect(recs *[]rec, sinks ...emu.Sink) emu.Sink {
	return emu.RecFunc(func(b emu.RecBatch) {
		for i := range b.Idx {
			*recs = append(*recs, rec{
				b.Idx[i], b.Next[i], b.Op[i], b.WBytes[i], b.Flags[i],
				b.Addr[i], b.Value[i], b.SrcA[i], b.SrcB[i],
			})
		}
		for _, s := range sinks {
			s.ConsumeRecs(b)
		}
	})
}

// eventRec flattens a replayed Event into a record, deriving the opcode,
// width and writes-dest flag from the Event's instruction rather than
// from the trace, so the comparison also checks the metadata the
// dispatch loop folds in at predecode time.
func eventRec(ev emu.Event) rec {
	var flags uint8
	if ev.Taken {
		flags |= emu.RecTaken
	}
	if _, ok := ev.Ins.Dest(); ok {
		flags |= emu.RecWritesDest
	}
	return rec{int32(ev.Idx), int32(ev.Next), uint8(ev.Ins.Op), uint8(ev.Ins.Width), flags,
		ev.Addr, ev.Value, ev.SrcA, ev.SrcB}
}

// runLive executes p with the batched dispatch loop, or one Step at a
// time when stepped, handing each batch on to the sinks.
func runLive(p *prog.Program, stepped bool, sinks ...emu.Sink) (*outcome, error) {
	o := &outcome{}
	m := emu.New(p)
	defer m.Release()
	m.Sink = collect(&o.recs, sinks...)
	var err error
	if !stepped {
		err = m.Run()
	}
	for stepped && err == nil && !m.Halted {
		err = m.Step()
	}
	if err != nil {
		return nil, fmt.Errorf("live run (stepped %v): %w", stepped, err)
	}
	o.finish(m)
	return o, nil
}

// runReplayed executes p once while recording a packed trace, then
// replays the trace; the returned outcome pairs the replayed stream with
// the live run's architectural end state.
func runReplayed(p *prog.Program) (*outcome, error) {
	o := &outcome{}
	m := emu.New(p)
	defer m.Release()
	rec := emu.NewTraceRecorder(p)
	m.Sink = rec
	if err := m.Run(); err != nil {
		return nil, fmt.Errorf("capture run: %w", err)
	}
	tr, err := rec.Trace()
	if err != nil {
		return nil, fmt.Errorf("trace capture: %w", err)
	}
	if tr.Len() != m.Dyn {
		return nil, fmt.Errorf("trace length %d != %d retired instructions", tr.Len(), m.Dyn)
	}
	tr.Replay(emu.FuncSink(func(ev emu.Event) { o.recs = append(o.recs, eventRec(ev)) }))
	o.finish(m)
	return o, nil
}

func (o *outcome) finish(m *emu.Machine) {
	o.output = append([]byte(nil), m.Output...)
	o.mem = append([]byte(nil), m.Mem...)
	o.dyn = m.Dyn
	o.regs = m.Regs
}

// diff explains the first difference between two outcomes, or returns nil.
func diff(a, b *outcome, aName, bName string) error {
	if a.dyn != b.dyn {
		return fmt.Errorf("%s retired %d instructions, %s %d", aName, a.dyn, bName, b.dyn)
	}
	if len(a.recs) != len(b.recs) {
		return fmt.Errorf("%s delivered %d records, %s %d", aName, len(a.recs), bName, len(b.recs))
	}
	for i := range a.recs {
		if a.recs[i] != b.recs[i] {
			return fmt.Errorf("record %d differs: %s %+v, %s %+v", i, aName, a.recs[i], bName, b.recs[i])
		}
	}
	if !bytes.Equal(a.output, b.output) {
		return fmt.Errorf("output streams differ (%s %d bytes, %s %d bytes)", aName, len(a.output), bName, len(b.output))
	}
	if a.regs != b.regs {
		return fmt.Errorf("final register files differ")
	}
	if !bytes.Equal(a.mem, b.mem) {
		return fmt.Errorf("final memories differ")
	}
	return nil
}

// CheckExec asserts the execution-equivalence invariant on p: the batched
// Run loop, the per-Step wrapper and a captured-trace Replay must produce
// identical retirement streams (every record column) and identical
// architectural outcomes (output, registers, memory, retired count).
func CheckExec(p *prog.Program) error {
	batched, err := runLive(p, false)
	if err != nil {
		return err
	}
	stepped, err := runLive(p, true)
	if err != nil {
		return err
	}
	if err := diff(batched, stepped, "run", "step"); err != nil {
		return fmt.Errorf("run vs step: %w", err)
	}
	replayed, err := runReplayed(p)
	if err != nil {
		return err
	}
	if err := diff(batched, replayed, "run", "replay"); err != nil {
		return fmt.Errorf("run vs replay: %w", err)
	}
	return nil
}

// rewriteConfigs are the VRP configurations whose rewrites the
// evaluation reads: both modes and the five ablation configurations.
var rewriteConfigs = []struct {
	name string
	opts vrp.Options
}{
	{"useful", vrp.Options{Mode: vrp.Useful}},
	{"conventional", vrp.Options{Mode: vrp.Conventional}},
	{"no-loop", vrp.Options{Mode: vrp.Useful, DisableLoopAnalysis: true}},
	{"no-branch", vrp.Options{Mode: vrp.Useful, DisableBranchRefinement: true}},
	{"ranges-only", vrp.Options{Mode: vrp.Conventional, DisableLoopAnalysis: true, DisableBranchRefinement: true}},
	{"base-opcodes", vrp.Options{Mode: vrp.Useful, Opcodes: isa.BaseOpcodeSet()}},
	{"full-opcodes", vrp.Options{Mode: vrp.Useful, Opcodes: isa.FullOpcodeSet()}},
}

// CheckRewrites asserts the premises the harness reads width-only
// rewrites by: under every rewrite configuration, the binary
// vrp.Result.Apply builds retires p's exact path (every record matches
// p's in Idx, Next, Op, Flags and Addr) and produces p's output. Its
// live timing pass of the rewrite modes (software and both cooperative
// schemes) is the reference, compared by sameResult: a software overlay
// of its widths over p's records must equal its GateSoftware result, and
// its energy-only sink, fed its own records and p's timing result, every
// mode's. In conventional mode, which narrows no demanded bit, Value,
// SrcA and SrcB match too, so only WBytes differs.
func CheckRewrites(p *prog.Program) error {
	var rs []*vrp.Result
	var widths [][]isa.Width
	for _, rc := range rewriteConfigs {
		r, err := vrp.Analyze(p, rc.opts)
		if err != nil {
			return fmt.Errorf("%s rewrite: %w", rc.name, err)
		}
		rs = append(rs, r)
		widths = append(widths, r.Width)
	}
	cfg, params := uarch.DefaultConfig(), power.DefaultParams()
	software := []power.GatingMode{power.GateSoftware}
	overlaid, err := uarch.NewMulti(p, cfg, params, software, widths...)
	if err != nil {
		return err
	}
	base, err := runLive(p, false, overlaid)
	if err != nil {
		return err
	}
	timed := overlaid.FinishAll()
	overlays := timed[len(software):]
	for k, rc := range rewriteConfigs {
		if err := checkRewrite(rs[k].Apply(), base, timed[0], overlays[k], rc.opts.Mode == vrp.Conventional); err != nil {
			return fmt.Errorf("%s rewrite: %w", rc.name, err)
		}
	}
	return nil
}

// rewriteModes are the modes the harness times a rewrite under.
var rewriteModes = []power.GatingMode{power.GateSoftware, power.GateCooperative, power.GateCooperativeSig}

// checkRewrite runs the rewrite q against the base outcome (values:
// comparing the value columns too), feeding its records to its live
// timing pass and to its energy-only sink given baseTiming, the base's
// timing result, and holds the overlay and the sink to that live pass.
func checkRewrite(q *prog.Program, base *outcome, baseTiming, overlay *uarch.Result, values bool) error {
	cfg, params := uarch.DefaultConfig(), power.DefaultParams()
	live, err := uarch.NewMulti(q, cfg, params, rewriteModes)
	if err != nil {
		return err
	}
	sink, err := uarch.NewRewrite(q, params, rewriteModes, baseTiming)
	if err != nil {
		return err
	}
	c := &pathCheck{base: base, values: values}
	if err := c.run(q, live, sink); err != nil {
		return err
	}
	want := live.FinishAll()
	if err := sameResult(overlay, want[0], power.GateSoftware); err != nil {
		return fmt.Errorf("overlay: %w", err)
	}
	for i, mode := range rewriteModes {
		if err := sameResult(sink.FinishAll()[i], want[i], mode); err != nil {
			return fmt.Errorf("energy-only sink: %w", err)
		}
	}
	return nil
}

// pathCheck compares a rewrite's records against its base binary's as
// they retire, ignoring WBytes and, unless values is set, the value
// columns. It keeps the first difference.
type pathCheck struct {
	base   *outcome
	values bool
	n      int
	err    error
}

// run executes the rewrite q against the base outcome, feeding its
// records to the sinks too.
func (c *pathCheck) run(q *prog.Program, sinks ...emu.Sink) error {
	m := emu.New(q)
	defer m.Release()
	m.Sink = emu.RecFunc(func(b emu.RecBatch) {
		c.ConsumeRecs(b)
		for _, s := range sinks {
			s.ConsumeRecs(b)
		}
	})
	err := m.Run()
	switch {
	case c.err != nil:
		return c.err
	case err != nil:
		return err
	case c.n != len(c.base.recs):
		return fmt.Errorf("rewrite retired %d records, base %d", c.n, len(c.base.recs))
	case !bytes.Equal(m.Output, c.base.output):
		return fmt.Errorf("output streams differ")
	}
	return nil
}

// ConsumeRecs implements emu.Sink.
func (c *pathCheck) ConsumeRecs(b emu.RecBatch) {
	for i := range b.Idx {
		if c.err != nil {
			return
		}
		if c.n == len(c.base.recs) {
			c.err = fmt.Errorf("rewrite retires more than the base's %d records", c.n)
			return
		}
		want := c.base.recs[c.n]
		got := rec{b.Idx[i], b.Next[i], b.Op[i], want.wbytes, b.Flags[i], b.Addr[i], want.value, want.srcA, want.srcB}
		if c.values {
			got.value, got.srcA, got.srcB = b.Value[i], b.SrcA[i], b.SrcB[i]
		}
		if got != want {
			c.err = fmt.Errorf("record %d differs: base %+v, rewrite %+v", c.n, want, got)
		}
		c.n++
	}
}

// sameResult requires bit-identical timing and accounting between a fused
// and a solo simulation result: every energy compares by its bits.
func sameResult(fused, solo *uarch.Result, mode power.GatingMode) error {
	if fused.Cycles != solo.Cycles || fused.Instructions != solo.Instructions ||
		fused.IPC != solo.IPC || fused.BranchMissRate != solo.BranchMissRate ||
		fused.L1DMissRate != solo.L1DMissRate || fused.L1IMissRate != solo.L1IMissRate {
		return fmt.Errorf("mode %v: timing differs (fused %d cycles, solo %d)", mode, fused.Cycles, solo.Cycles)
	}
	if fused.Energy.Cycles != solo.Energy.Cycles {
		return fmt.Errorf("mode %v: meter cycles differ", mode)
	}
	for s, e := range fused.Energy.Energy {
		if math.Float64bits(e) != math.Float64bits(solo.Energy.Energy[s]) {
			return fmt.Errorf("mode %v: %v energy differs: fused %v, solo %v", mode, power.Structure(s), e, solo.Energy.Energy[s])
		}
	}
	if fused.Energy.Accesses != solo.Energy.Accesses {
		return fmt.Errorf("mode %v: access counts differ", mode)
	}
	return nil
}

// CheckFusedModes asserts the fused-accounting invariant on p: one
// RunModes pass over every gating mode must be bit-identical — cycles,
// per-structure energy, access counts — to independent per-mode Run
// calls.
func CheckFusedModes(p *prog.Program) error {
	cfg := uarch.DefaultConfig()
	params := power.DefaultParams()
	modes := power.Modes()
	fused, err := uarch.RunModes(p, cfg, params, modes)
	if err != nil {
		return fmt.Errorf("fused RunModes: %w", err)
	}
	for i, mode := range modes {
		solo, err := uarch.Run(p, cfg, params, mode)
		if err != nil {
			return fmt.Errorf("solo run (%v): %w", mode, err)
		}
		if err := sameResult(fused[i], solo, mode); err != nil {
			return err
		}
	}
	return nil
}

// checkBoth asserts CheckExec and CheckRewrites on the train and ref
// programs gen builds.
func checkBoth(label string, gen func(ref bool) (*prog.Program, error)) error {
	for _, ref := range []bool{false, true} {
		p, err := gen(ref)
		if err != nil {
			return err
		}
		if err = CheckExec(p); err == nil {
			err = CheckRewrites(p)
		}
		if err != nil {
			return fmt.Errorf("%s ref=%v: %w", label, ref, err)
		}
	}
	return nil
}

// Check generates the (family, seed, class) train and ref programs and
// asserts the execution-equivalence invariant and the rewrite path
// premise on both.
func Check(f progen.Family, seed uint64, c progen.Class) error {
	return checkBoth(fmt.Sprintf("%s/%s/%d", f, c, seed), func(ref bool) (*prog.Program, error) {
		return progen.Generate(f, seed, c, ref)
	})
}

// CheckPhased asserts what Check does on the phase-structured
// composite's train and ref programs: the non-stationary program space.
func CheckPhased(families []progen.Family, seed uint64, c progen.Class) error {
	return checkBoth(fmt.Sprintf("phase/%s/%s/%d", progen.PhaseLabel(families), c, seed), func(ref bool) (*prog.Program, error) {
		p, _, err := progen.GeneratePhased(families, seed, c, ref)
		return p, err
	})
}

// CheckFlip asserts what Check does on the width-flip program's train
// and ref variants.
func CheckFlip(period int, seed uint64, c progen.Class) error {
	return checkBoth(fmt.Sprintf("flip/%d/%s/%d", period, c, seed), func(ref bool) (*prog.Program, error) {
		return progen.GenerateFlip(period, seed, c, ref)
	})
}
