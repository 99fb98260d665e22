package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"opgate"
	"opgate/client"
	"opgate/internal/emu"
	"opgate/internal/harness"
	"opgate/internal/isa"
	"opgate/internal/journal"
	"opgate/internal/power"
	"opgate/internal/prog"
	"opgate/internal/store"
	"opgate/internal/uarch"
	"opgate/internal/vrp"
	"opgate/internal/vrs"
	"opgate/internal/workload"
)

// kernelReps is how often each layer kernel repeats per program; the
// per-program median is kept.
const kernelReps = 5

// traced is the --trace 1 run. It repeats the workload with spans on:
// the paper pipeline in-process over the workload's programs (train
// inputs, as every workload's evaluations use), the layer kernels on the
// same programs, the journal, and a traced closed-loop window against
// opgated. It writes the spans and their
// self-time table to the traces directory.
func (b *bench) traced(ctx context.Context) error {
	t := newTracer()
	const quick = true // every workload evaluates on train inputs
	var st *store.Store
	if b.opts.workload == "paper-warm" {
		dir := filepath.Join(b.opts.work, "store")
		c, err := b.runChild(ctx, "ogbench", append(evalArgs, "-store", dir)...)
		if err != nil {
			return err
		}
		b.check("store fill", checkDigest(c.stdout, b.expect.Reports["train"]))
		if st, err = store.Open(dir, 0); err != nil {
			return err
		}
	}
	sims := b.pipeline(ctx, t, quick, st)
	b.kernels(t, quick, sims)
	b.journalLayer(t)
	window := 3 * time.Second
	if b.opts.workload == "service-mix" {
		window = time.Duration(b.opts.seconds) * time.Second
	}
	b.serviceLayer(ctx, t, window)

	spans := t.snapshot()
	self := selfTimes(spans)
	if err := os.MkdirAll(b.opts.traces, 0o755); err != nil {
		return err
	}
	path := filepath.Join(b.opts.traces, fmt.Sprintf("%s-seed%d.json", b.opts.workload, b.opts.seed))
	if err := writeSpans(path, spans, self); err != nil {
		return err
	}
	fmt.Printf("%d spans written to %s\n", len(spans), path)
	printSelf(os.Stdout, self, 25)
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func className(quick bool) string {
	if quick {
		return "train"
	}
	return "ref"
}

// newSuite is a suite as ogbench builds it, but with one worker, so the
// traced run's spans never overlap and times are work, not parallelism.
func newSuite(quick bool, st *store.Store) *harness.Suite {
	s := harness.NewSuite(quick)
	s.Workers = 1
	s.Store = st
	return s
}

// simGroup is one fused timing pass the evaluation requests: a variant
// and the gating modes accrued together.
type simGroup struct {
	label   string
	variant string
	modes   []power.GatingMode
}

func vrsVariant(th float64) string { return fmt.Sprintf("vrs%g", th) }

// simPlan lists every timing pass `-experiment all` at the default
// threshold performs per workload, in the order the traced run drives
// them.
func simPlan() []simGroup {
	sw := []power.GatingMode{power.GateSoftware}
	hw := []power.GatingMode{power.GateHWSize, power.GateHWSignificance}
	coop := []power.GatingMode{power.GateCooperative, power.GateCooperativeSig}
	plan := []simGroup{
		{"sim.none", "base", []power.GatingMode{power.GateNone}},
		{"sim.hw-pair", "base", hw},
		{"sim.software", "vrp", sw},
		{"sim.coop-pair", "vrp", coop},
	}
	for _, th := range harness.Thresholds {
		plan = append(plan, simGroup{"sim.software", vrsVariant(th), sw})
	}
	return append(plan, simGroup{"sim.coop-pair", vrsVariant(opgate.DefaultThreshold), coop})
}

// histVariants are the variants whose dynamic width histograms the
// evaluation reads.
var histVariants = []string{"base", "vrp", "vrp-conv", vrsVariant(opgate.DefaultThreshold)}

// simStat is one simulated result as exact numbers: a simulator change
// that only makes the simulator faster must leave every one identical.
type simStat struct {
	Workload     string  `json:"workload"`
	Variant      string  `json:"variant"`
	Mode         string  `json:"mode"`
	Cycles       int64   `json:"cycles"`
	Instructions int64   `json:"instructions"`
	Energy       float64 `json:"energy"`
}

func statOf(name, variant string, mode power.GatingMode, r *uarch.Result) simStat {
	return simStat{name, variant, mode.String(), r.Cycles, r.Instructions, r.Energy.Total()}
}

// simStats reads every planned simulation from a suite that has run the
// evaluation (all memoized, so this costs nothing).
func simStats(s *harness.Suite) ([]simStat, error) {
	var out []simStat
	for _, name := range s.Names() {
		for _, g := range simPlan() {
			for _, m := range g.modes {
				r, err := s.Sim(name, g.variant, m)
				if err != nil {
					return nil, err
				}
				out = append(out, statOf(name, g.variant, m, r))
			}
		}
	}
	return out, nil
}

func sameStats(a, b []simStat) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d simulated results, want %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			return fmt.Errorf("%s/%s/%s: got %+v, want %+v", b[i].Workload, b[i].Variant, b[i].Mode, a[i], b[i])
		}
	}
	return nil
}

// pipeline runs the evaluation in-process three times, each on a fresh
// suite: untraced as a fresh ogbench process does (per-experiment times,
// report encoding, the memoized rerun, the emulation probes); traced,
// with a span around every stage in dependency order; and untraced
// again, as the reference for trace coverage and overhead, since it too
// runs on the heap the earlier passes grew. All three must produce the
// reference commit's reports and identical simulated results. It returns
// the results for the kernels' cross-checks.
func (b *bench) pipeline(ctx context.Context, t *tracer, quick bool, st *store.Store) []simStat {
	class := className(quick)
	sims0, ok := b.attribute(ctx, quick, st, b.expect.Reports[class])
	if !ok {
		return nil
	}
	sims1, topSum, tracedWall := b.tracedPipeline(ctx, t, quick, st)

	s2 := newSuite(quick, st)
	start := time.Now()
	reports, err := s2.RunAll(ctx, opgate.DefaultThreshold)
	var enc []byte
	if err == nil {
		enc, err = harness.EncodeReports(reports)
	}
	untraced := time.Since(start)
	if err == nil {
		err = checkDigest(enc, b.expect.Reports[class])
	}
	b.check("untraced reference run", err)
	b.add("trace.coverage", topSum/ms(untraced), "ratio", 1)
	b.add("trace.overhead", tracedWall.Seconds()/untraced.Seconds()-1, "ratio", 1)
	sims2, err := simStats(s2)
	if err == nil {
		err = errors.Join(sameStats(sims1, sims0), sameStats(sims2, sims0))
	}
	b.check("simulated results, three runs", err)
	b.check("simulated results vs reference commit", sameStats(sims0, b.expect.Sims[class]))
	return sims0
}

// attribute times each experiment of the evaluation on a fresh suite in
// RunAll order, then report encoding and a rerun on the memoized suite.
func (b *bench) attribute(ctx context.Context, quick bool, st *store.Store, want string) ([]simStat, bool) {
	th := float64(opgate.DefaultThreshold)
	s := newSuite(quick, st)
	var reports []*harness.Report
	for _, e := range harness.Experiments() {
		t0 := time.Now()
		r, err := s.RunExperiment(ctx, e.ID, th)
		if !b.check("experiment "+e.ID, err) {
			return nil, false
		}
		b.add("harness.exp_ms."+e.ID, ms(time.Since(t0)), "ms", 1)
		reports = append(reports, r)
	}
	var enc []byte
	var encTimes []float64
	for i := 0; i < kernelReps; i++ {
		t0 := time.Now()
		var err error
		enc, err = harness.EncodeReports(reports)
		encTimes = append(encTimes, ms(time.Since(t0)))
		if !b.check("encode reports", err) {
			return nil, false
		}
	}
	b.check("in-process reports", checkDigest(enc, want))
	b.add("harness.encode_ms", median(encTimes), "ms", len(encTimes))
	t0 := time.Now()
	again, err := s.RunAll(ctx, th)
	b.add("harness.rerun_ms", ms(time.Since(t0)), "ms", 1)
	if err == nil {
		var enc2 []byte
		if enc2, err = harness.EncodeReports(again); err == nil && !bytes.Equal(enc, enc2) {
			err = errors.New("rerun on a memoized suite changed the reports")
		}
	}
	b.check("rerun", err)
	b.add("harness.emulations", float64(s.Emulations()), "count", 1)
	b.add("harness.train_emulations", float64(s.TrainEmulations()), "count", 1)
	sims, err := simStats(s)
	return sims, b.check("simulated results", err)
}

// tracedPipeline drives a fresh suite in dependency order with a span
// around every stage: per workload the builds, VRP, VRS (the first
// threshold pays the profile), every timing pass and width histogram the
// evaluation reads; then each experiment, which now assembles reports
// from memoized work (the ablations redo theirs), and the encoding. It
// returns the simulated results, the sum of the top-level spans and the
// pass's wall time.
func (b *bench) tracedPipeline(ctx context.Context, t *tracer, quick bool, st *store.Store) ([]simStat, float64, time.Duration) {
	th := float64(opgate.DefaultThreshold)
	runtime.GC()
	var before store.Stats
	if st != nil {
		before = st.Stats()
	}
	s := newSuite(quick, st)
	evalClass := workload.Ref
	if quick {
		evalClass = workload.Train
	}
	start := time.Now()
	var top []int
	traceTop := func(name, group string, fn func(id int) error) {
		var id int
		err := t.do(0, name, group, func(i int) error { id = i; return fn(i) })
		top = append(top, id)
		b.check(name+" "+group, err)
	}
	for _, name := range s.Names() {
		traceTop("pipeline", name, func(pid int) error {
			var errs []error
			stage := func(stage, group string, fn func() error) {
				errs = append(errs, t.do(pid, stage, group, func(int) error { return fn() }))
			}
			stage("workload.build", name, func() error {
				if _, err := s.Program(name, workload.Train); err != nil {
					return err
				}
				_, err := s.Program(name, evalClass)
				return err
			})
			stage("vrp.analyze", name+"/vrp", func() error { _, err := s.VRP(name, vrp.Useful); return err })
			stage("vrp.analyze", name+"/vrp-conv", func() error { _, err := s.VRP(name, vrp.Conventional); return err })
			for i, th := range harness.Thresholds {
				label := "vrs.select"
				if i == 0 {
					label = "vrs.profile+select"
				}
				stage(label, name+"/"+vrsVariant(th), func() error { _, err := s.VRS(name, th); return err })
			}
			for _, g := range simPlan() {
				stage(g.label, name+"/"+g.variant, func() error { _, err := s.Sim(name, g.variant, g.modes[0]); return err })
			}
			for _, v := range histVariants {
				stage("hist", name+"/"+v, func() error { _, err := s.DynWidthHistogram(name, v); return err })
			}
			return errors.Join(errs...)
		})
	}
	var reports []*harness.Report
	for _, e := range harness.Experiments() {
		traceTop("harness.exp."+e.ID, e.ID, func(int) error {
			r, err := s.RunExperiment(ctx, e.ID, th)
			reports = append(reports, r)
			return err
		})
	}
	traceTop("harness.encode", "reports", func(int) error {
		enc, err := harness.EncodeReports(reports)
		if err == nil {
			err = checkDigest(enc, b.expect.Reports[className(quick)])
		}
		return err
	})
	wall := time.Since(start)

	var topSum float64
	spans := t.snapshot()
	for _, id := range top {
		topSum += spans[id-1].dur()
	}
	hitFrac := 0.0
	if st != nil {
		after := st.Stats()
		if n := after.Hits + after.Misses - before.Hits - before.Misses; n > 0 {
			hitFrac = float64(after.Hits-before.Hits) / float64(n)
		}
	}
	b.add("store.hit_frac", hitFrac, "ratio", 1)
	sims, err := simStats(s)
	b.check("simulated results", err)
	return sims, topSum, wall
}

// nullSink discards replayed events, so the kernel times the replay alone.
type nullSink struct{}

func (nullSink) Consume([]emu.Event) {}

// widthTally counts record widths the way the pipeline's dynamic width
// histograms do, so the records kernel reads every record it is handed.
type widthTally struct{ h *vrp.WidthHistogram }

func (w widthTally) ConsumeRecs(b emu.RecBatch) {
	for i, op := range b.Op {
		if vrp.CountsWidth(isa.Op(op)) {
			w.h.Add(isa.Width(b.WBytes[i]), 1)
		}
	}
}

// timed runs fn kernelReps times and returns the median wall time in ms
// and fn's first error.
func timed(fn func() error) (float64, error) {
	var ts []float64
	var first error
	for i := 0; i < kernelReps; i++ {
		t0 := time.Now()
		err := fn()
		ts = append(ts, ms(time.Since(t0)))
		if first == nil {
			first = err
		}
	}
	return median(ts), first
}

// layerTotals sums per-program kernel medians across the workloads.
type layerTotals struct {
	buildMs, analyzeMs, applyMs, profileMs, selectMs float64
	specialized, candidates                          int
	events                                           int64
	runMs, captureMs, replayMs, recordsMs            float64
	encMs, decMs, putMs, getMs                       float64
	encBytes                                         int64
	puts                                             int
	coreMs, bank2Ms, bank6Ms                         float64
}

// kernels times each layer's public functions on the base programs the
// pipeline evaluates, one workload at a time, and cross-checks every
// simulation against the pipeline's result for the same work.
func (b *bench) kernels(t *tracer, quick bool, sims []simStat) {
	class := workload.Ref
	if quick {
		class = workload.Train
	}
	want := map[string]simStat{}
	for _, s := range sims {
		want[s.Workload+"/"+s.Variant+"/"+s.Mode] = s
	}
	dir := filepath.Join(b.opts.work, "kernel-store")
	be, err := store.OpenDir(dir, 0)
	if !b.check("kernel store", err) {
		return
	}
	var tot layerTotals
	for _, w := range workload.All() {
		err := t.do(0, "kernels", w.Name, func(kid int) error {
			return b.kernelsOf(t, kid, w, class, be, want, &tot)
		})
		b.check("kernels "+w.Name, err)
	}
	removeAll(dir)

	ev := float64(tot.events)
	mips := func(msec float64) float64 { return ev / msec / 1e3 }
	mbps := func(msec float64) float64 { return float64(tot.encBytes) / msec / 1e3 }
	b.add("workload.build_ms", tot.buildMs, "ms", kernelReps)
	b.add("vrp.analyze_ms", tot.analyzeMs, "ms", kernelReps)
	b.add("vrp.apply_ms", tot.applyMs, "ms", kernelReps)
	b.add("vrs.profile_ms", tot.profileMs, "ms", kernelReps)
	b.add("vrs.select_ms", tot.selectMs, "ms", kernelReps*len(harness.Thresholds))
	b.add("vrs.specialized_frac", float64(tot.specialized)/float64(max(tot.candidates, 1)), "ratio", tot.candidates)
	b.add("emu.mips", mips(tot.runMs), "MIPS", kernelReps)
	b.add("emu.capture_mips", mips(tot.captureMs), "MIPS", kernelReps)
	b.add("emu.replay_mips", mips(tot.replayMs), "MIPS", kernelReps)
	b.add("emu.records_mips", mips(tot.recordsMs), "MIPS", kernelReps)
	b.add("emu.events", ev, "count", 1)
	b.add("store.encode_mbps", mbps(tot.encMs), "MB/s", kernelReps)
	b.add("store.decode_mbps", mbps(tot.decMs), "MB/s", kernelReps)
	b.add("store.get_mbps", mbps(tot.getMs), "MB/s", kernelReps)
	b.add("store.put_ms", tot.putMs/float64(max(tot.puts, 1)), "ms", kernelReps*tot.puts)
	b.add("store.trace_mb", float64(tot.encBytes)/1e6, "MB", 1)
	b.add("uarch.core_mips", mips(tot.coreMs), "MIPS", kernelReps)
	b.add("power.bank2_mips", mips(tot.bank2Ms), "MIPS", kernelReps)
	b.add("power.bank6_mips", mips(tot.bank6Ms), "MIPS", kernelReps)
	b.add("power.mode_ns_per_event", (tot.bank6Ms-tot.coreMs)*1e6/(5*ev), "ns", kernelReps)
}

// kernelsOf runs every kernel on one workload's base program.
func (b *bench) kernelsOf(t *tracer, parent int, w *workload.Workload, class workload.InputClass,
	be *store.DirBackend, want map[string]simStat, tot *layerTotals) error {
	k := func(name string, fn func() error) (float64, error) {
		var msec float64
		err := t.do(parent, name, w.Name+"/base", func(int) (err error) {
			msec, err = timed(fn)
			return err
		})
		return msec, err
	}
	var train, ref *prog.Program
	d, err := k("kernel.workload.build", func() (err error) {
		if train, err = w.Build(workload.Train); err != nil {
			return err
		}
		ref, err = w.Build(workload.Ref)
		return err
	})
	if err != nil {
		return err
	}
	tot.buildMs += d
	p := ref
	if class == workload.Train {
		p = train
	}

	var vr *vrp.Result
	if d, err = k("kernel.vrp.analyze", func() (err error) { vr, err = vrp.Analyze(p, vrp.Options{Mode: vrp.Useful}); return err }); err != nil {
		return err
	}
	tot.analyzeMs += d
	d, _ = k("kernel.vrp.apply", func() error { vr.Apply(); return nil })
	tot.applyMs += d

	var pf *vrs.Profile
	if d, err = k("kernel.vrs.profile", func() (err error) {
		pf, err = vrs.NewProfile(train, p, vrs.Options{Power: power.DefaultParams()})
		return err
	}); err != nil {
		return err
	}
	tot.profileMs += d
	var at50 *vrs.Result
	for _, th := range harness.Thresholds {
		d, err := k("kernel.vrs.select", func() (err error) {
			r, err := pf.Select(th)
			if th == opgate.DefaultThreshold {
				at50 = r
			}
			return err
		})
		if err != nil {
			return err
		}
		tot.selectMs += d / float64(len(harness.Thresholds))
	}
	tot.specialized += at50.NumSpecialized()
	tot.candidates += pf.NumCandidates()

	// One machine, reset between runs, so the kernels time execution and
	// not the allocation of a fresh memory image.
	m := emu.New(p)
	rerun := func(sink emu.Sink) error {
		m.Reset()
		m.Fuel = emu.DefaultFuel
		m.Sink = sink
		return m.Run()
	}
	if d, err = k("kernel.emu.run", func() error { return rerun(nil) }); err != nil {
		return err
	}
	tot.runMs += d
	dyn := m.Dyn
	var tr *emu.Trace
	if d, err = k("kernel.emu.capture", func() error {
		rec := emu.NewTraceRecorder(p)
		if err := rerun(rec); err != nil {
			return err
		}
		var err error
		tr, err = rec.Trace()
		return err
	}); err != nil {
		return err
	}
	tot.captureMs += d
	if tr.Len() != dyn {
		return fmt.Errorf("%s: captured %d events, emulation retired %d", w.Name, tr.Len(), dyn)
	}
	tot.events += dyn
	d, _ = k("kernel.emu.replay", func() error { tr.Replay(nullSink{}); return nil })
	tot.replayMs += d
	var h vrp.WidthHistogram
	d, _ = k("kernel.emu.records", func() error { tr.Records(widthTally{&h}); return nil })
	tot.recordsMs += d

	id := store.ProgramIdentity(p)
	var enc []byte
	d, _ = k("kernel.store.encode", func() error { enc = store.EncodeTrace(tr, id); return nil })
	tot.encMs += d
	tot.encBytes += int64(len(enc))
	if d, err = k("kernel.store.decode", func() error {
		got, err := store.DecodeTrace(enc, p, id)
		if err == nil && got.Len() != tr.Len() {
			err = fmt.Errorf("decoded %d events, encoded %d", got.Len(), tr.Len())
		}
		return err
	}); err != nil {
		return err
	}
	tot.decMs += d
	key := store.TraceKey(w.Name, "base", class.String(), id)
	if d, err = k("kernel.store.put", func() error { return be.Put(key, enc) }); err != nil {
		return err
	}
	tot.putMs += d
	tot.puts++
	if d, err = k("kernel.store.get", func() error {
		got, ok := be.Get(key)
		if !ok || !bytes.Equal(got, enc) {
			return errors.New("store get returned other bytes")
		}
		return nil
	}); err != nil {
		return err
	}
	tot.getMs += d

	cfg, params := uarch.DefaultConfig(), power.DefaultParams()
	replay := func(name string, modes []power.GatingMode, sum *float64) error {
		var rs []*uarch.Result
		d, err := k(name, func() (err error) { rs, err = uarch.ReplayModes(tr, cfg, params, modes); return err })
		if err != nil {
			return err
		}
		*sum += d
		for i, m := range modes {
			if s, ok := want[w.Name+"/base/"+m.String()]; ok {
				if got := statOf(w.Name, "base", m, rs[i]); got != s {
					return fmt.Errorf("%s on the base trace: %+v, pipeline %+v", name, got, s)
				}
			}
		}
		return nil
	}
	return errors.Join(
		replay("kernel.uarch.core", []power.GatingMode{power.GateNone}, &tot.coreMs),
		replay("kernel.power.bank2", []power.GatingMode{power.GateHWSize, power.GateHWSignificance}, &tot.bank2Ms),
		replay("kernel.power.bank6", power.Modes(), &tot.bank6Ms),
	)
}

// journalLayer times fsynced appends to a fresh journal: three
// transitions for each of 20 jobs, as opgated journals a job's life.
func (b *bench) journalLayer(t *tracer) {
	dir := filepath.Join(b.opts.work, "journal")
	if !b.check("journal dir", os.MkdirAll(dir, 0o755)) {
		return
	}
	defer removeAll(dir)
	j, _, err := journal.Open(filepath.Join(dir, "journal.log"), journal.DefaultCompactBudget, client.TerminalStatus, nil)
	if !b.check("journal open", err) {
		return
	}
	var lat []float64
	for i := 0; i < 20; i++ {
		for _, status := range []string{client.StatusQueued, client.StatusRunning, client.StatusDone} {
			rec := journal.Record{
				Time: time.Now().UnixNano(), Job: fmt.Sprintf("job-%06d", i), Status: status,
				Experiment: warmReq.Experiment, Threshold: warmReq.Threshold,
				ReportKey: fmt.Sprintf("%064x", i),
			}
			t0 := time.Now()
			err := t.do(0, "journal.append", rec.Job, func(int) error { _, err := j.Append(rec); return err })
			if b.check("journal append", err) {
				lat = append(lat, ms(time.Since(t0)))
			}
		}
	}
	b.check("journal close", j.Close())
	b.add("journal.append_ms", median(lat), "ms", len(lat))
}

// serviceLayer drives a primed opgated closed-loop for window with every
// request traced, and reads the serving counters around it.
func (b *bench) serviceLayer(ctx context.Context, t *tracer, window time.Duration) {
	d, primed, err := b.startPrimed(ctx, filepath.Join(b.opts.work, "svc"))
	if !b.check("service set-up", err) {
		return
	}
	b.check("prime fig15", checkDigest(primed, b.expect.Fig15))
	before, err := scrapeHealth(ctx, d.base)
	b.check("healthz", err)
	from := len(t.snapshot())
	b.drive(ctx, d, primed, window, t)
	after, err := scrapeHealth(ctx, d.base)
	b.check("healthz", err)
	b.check("drain", d.stop())

	var submit, report []float64
	for _, s := range t.snapshot()[from:] {
		switch s.Name {
		case "opgated.submit":
			submit = append(submit, s.dur())
		case "opgated.report":
			report = append(report, s.dur())
		}
	}
	hits := (after.Serving.FromCache + after.Serving.Coalesced) - (before.Serving.FromCache + before.Serving.Coalesced)
	served := hits + (after.Serving.Computed + after.Serving.FromPeer) - (before.Serving.Computed + before.Serving.FromPeer)
	b.add("opgated.submit_ms", median(submit), "ms", len(submit))
	b.add("opgated.report_ms", median(report), "ms", len(report))
	b.add("opgated.hit_frac", float64(hits)/float64(max(served, 1)), "ratio", int(served))
	b.add("opgated.shed", float64(after.Admission.Sheds-before.Admission.Sheds), "count", 1)
}
