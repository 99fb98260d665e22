package opgate

// The repository-level benchmark harness: one benchmark per table and
// figure of the paper's evaluation (run them all with
// `go test -bench=. -benchmem`), plus micro-benchmarks for the analysis
// and simulation substrates. The table/figure benchmarks run the suite in
// quick mode (train inputs) and report the headline metric of each
// experiment as a custom unit so the regenerated result is visible in the
// benchmark log.

import (
	"context"
	"math"
	"testing"

	"opgate/internal/emu"
	"opgate/internal/harness"
	"opgate/internal/isa"
	"opgate/internal/power"
	"opgate/internal/prog"
	"opgate/internal/store"
	"opgate/internal/uarch"
	"opgate/internal/vrp"
	"opgate/internal/vrs"
	"opgate/internal/workload"
)

// benchSuite is shared across benchmarks; its caches make each experiment
// incremental after the first run.
var benchSuite = harness.NewSuite(true)

// benchCtx: benchmarks never cancel mid-run.
var benchCtx = context.Background()

func BenchmarkTable1ALUEnergy(b *testing.B) {
	var v float64
	for i := 0; i < b.N; i++ {
		rep := benchSuite.Table1()
		v = rep.MustValue("src 64", "8")
	}
	b.ReportMetric(v, "nJ-saved-64to8")
}

func BenchmarkTable3OpDistribution(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := benchSuite.Table3(benchCtx)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*rep.MustValue("ADD", "% of instrs"), "pct-ADD")
	}
}

func BenchmarkFigure2WidthHistogram(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := benchSuite.Figure2(benchCtx)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*rep.MustValue("Proposed VRP", "64 bits"), "pct-64bit-proposed")
	}
}

func BenchmarkFigure3VRPEnergy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := benchSuite.Figure3(benchCtx)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*rep.MustValue("VRP", "Processor"), "pct-energy-saved")
	}
}

func BenchmarkFigure4ProfiledPoints(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := benchSuite.Figure4(benchCtx, 50)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*rep.MustValue("Average", "no benefit"), "pct-filtered")
	}
}

func BenchmarkFigure5StaticSpecialization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := benchSuite.Figure5(benchCtx, 50)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*rep.MustValue("m88ksim", "eliminated"), "pct-eliminated-m88ksim")
	}
}

func BenchmarkFigure6RuntimeSpecialization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := benchSuite.Figure6(benchCtx, 50)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*rep.MustValue("Average", "specialized"), "pct-specialized")
	}
}

func BenchmarkFigure7WidthByMechanism(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := benchSuite.Figure7(benchCtx, 50)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*rep.MustValue("VRP", "64 bits"), "pct-64bit-vrp")
	}
}

func BenchmarkFigure8EnergySavings(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := benchSuite.Figure8(benchCtx)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*rep.MustValue("AVG", "VRS 50nJ"), "pct-energy-vrs50")
	}
}

func BenchmarkFigure9PerStructure(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := benchSuite.Figure9(benchCtx)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*rep.MustValue("VRS 50nJ", "FU"), "pct-FU-vrs50")
	}
}

func BenchmarkFigure10ExecTime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := benchSuite.Figure10(benchCtx)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*rep.MustValue("AVG", "VRS 50nJ"), "pct-time-saved")
	}
}

func BenchmarkFigure11EnergyDelay2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := benchSuite.Figure11(benchCtx)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*rep.MustValue("AVG", "VRS 50nJ"), "pct-ed2-vrs50")
	}
}

func BenchmarkFigure12DataSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := benchSuite.Figure12(benchCtx)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*rep.MustValue("occurrence", "1"), "pct-1byte")
	}
}

func BenchmarkFigure13Hardware(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := benchSuite.Figure13(benchCtx)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*rep.MustValue("AVG", "significance compression"), "pct-energy-hwsig")
	}
}

func BenchmarkFigure14HardwarePerStructure(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := benchSuite.Figure14(benchCtx)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*rep.MustValue("significance compression", "Processor"), "pct-proc-hwsig")
	}
}

func BenchmarkFigure15Combined(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := benchSuite.Figure15(benchCtx, 50)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*rep.MustValue("AVG", "VRS 50 + hdw significance"), "pct-ed2-combined")
	}
}

func BenchmarkAblationOpcodeSets(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := benchSuite.AblationOpcodeSets(benchCtx)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*rep.MustValue("paper extension set", "energy saved"), "pct-energy-paperset")
	}
}

func BenchmarkAblationAnalysis(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := benchSuite.AblationAnalysis(benchCtx)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*rep.MustValue("full (proposed VRP)", "64-bit share"), "pct-64bit-full")
	}
}

// --- Substrate micro-benchmarks -----------------------------------------

func BenchmarkVRPAnalyze(b *testing.B) {
	w, err := workload.ByName("gcc")
	if err != nil {
		b.Fatal(err)
	}
	p, err := w.Build(workload.Ref)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := vrp.Analyze(p, vrp.Options{Mode: vrp.Useful}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVRSSpecialize(b *testing.B) {
	w, _ := workload.ByName("m88ksim")
	trainP, _ := w.Build(workload.Train)
	refP, _ := w.Build(workload.Ref)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := vrs.Specialize(trainP, refP, vrs.Options{Threshold: 50}); err != nil {
			b.Fatal(err)
		}
	}
}

// countingSink tallies deliveries without per-record work: the cheapest
// possible batch consumer, isolating the substrate's delivery cost. It
// takes both live record batches and replayed Event batches.
type countingSink struct{ events int64 }

func (c *countingSink) ConsumeRecs(b emu.RecBatch) { c.events += int64(b.Len()) }
func (c *countingSink) Consume(batch []emu.Event)  { c.events += int64(len(batch)) }

// BenchmarkEmuMIPS reports emulated millions-of-instructions-per-second,
// the metric that bounds every experiment in the evaluation. The raw and
// records legs reuse one machine, resetting it between runs, to time the
// dispatch loop alone (no sink) and with record delivery to a counting
// sink. The fresh leg is the capture shape of a suite emulation with a
// store attached: New, a TraceRecorder, Run and Release per iteration, so
// it also prices drawing a memory image from the pool, capturing the
// trace and scrubbing the image. Without a store a suite emulation
// captures nothing; its records go straight to their consumers.
func BenchmarkEmuMIPS(b *testing.B) {
	w, _ := workload.ByName("compress")
	p, _ := w.Build(workload.Train)
	for _, v := range []struct {
		name string
		sink emu.Sink
	}{
		{"raw", nil},
		{"records", new(countingSink)},
	} {
		b.Run(v.name, func(b *testing.B) {
			m := emu.New(p)
			defer m.Release()
			m.Sink = v.sink
			var dyn int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.Reset()
				m.Fuel = emu.DefaultFuel
				if err := m.Run(); err != nil {
					b.Fatal(err)
				}
				dyn += m.Dyn
			}
			b.ReportMetric(float64(dyn)/b.Elapsed().Seconds()/1e6, "MIPS")
		})
	}
	b.Run("fresh", func(b *testing.B) {
		var dyn int64
		for i := 0; i < b.N; i++ {
			m := emu.New(p)
			rec := emu.NewTraceRecorder(p)
			m.Sink = rec
			if err := m.Run(); err != nil {
				b.Fatal(err)
			}
			if _, err := rec.Trace(); err != nil {
				b.Fatal(err)
			}
			dyn += m.Dyn
			m.Release()
		}
		b.ReportMetric(float64(dyn)/b.Elapsed().Seconds()/1e6, "MIPS")
	})
}

// BenchmarkTraceReplayMIPS reports the speed of streaming a captured
// retirement trace back out, in emulated-millions-of-instructions per
// second: the rate every re-simulation of a traced variant enjoys instead
// of a fresh emulation. Sub-benchmarks cover Event replay (the expanded
// view the differential oracles read) and packed-record streaming (the
// path the timing core, histograms and profilers take).
func BenchmarkTraceReplayMIPS(b *testing.B) {
	w, _ := workload.ByName("compress")
	p, _ := w.Build(workload.Train)
	rec := emu.NewTraceRecorder(p)
	m := emu.New(p)
	m.Sink = rec
	if err := m.Run(); err != nil {
		b.Fatal(err)
	}
	tr, err := rec.Trace()
	if err != nil {
		b.Fatal(err)
	}
	b.Run("events", func(b *testing.B) {
		sink := new(countingSink)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tr.Replay(sink)
		}
		b.ReportMetric(float64(tr.Len()*int64(b.N))/b.Elapsed().Seconds()/1e6, "MIPS")
	})
	b.Run("records", func(b *testing.B) {
		// A representative packed consumer: scan the op/width columns
		// (what the width histogram does), no Event materialisation.
		var n, wsum int64
		sink := emu.RecFunc(func(batch emu.RecBatch) {
			for i, op := range batch.Op {
				if isa.Op(op) != isa.OpHALT {
					wsum += int64(batch.WBytes[i])
				}
			}
			n += int64(batch.Len())
		})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tr.Records(sink)
		}
		b.ReportMetric(float64(n)/b.Elapsed().Seconds()/1e6, "MIPS")
		_ = wsum
	})
}

// BenchmarkTraceStore reports the trace codec's throughput in MB/s of
// encoded trace over one quick workload's base trace: encode serializes
// the captured trace (what a suite capture writes to the store), decode
// checks the checksum, copies the columns out and restores a validated
// whole trace bound to the program (DecodeTrace), and read is a warm
// suite read: Store.ReadTrace of the stored trace from a directory store
// (map, both CRCs, identity, validation, chunked decode) into a no-op
// sink.
func BenchmarkTraceStore(b *testing.B) {
	w, _ := workload.ByName("compress")
	p, _ := w.Build(workload.Train)
	rec := emu.NewTraceRecorder(p)
	m := emu.New(p)
	defer m.Release()
	m.Sink = rec
	if err := m.Run(); err != nil {
		b.Fatal(err)
	}
	tr, err := rec.Trace()
	if err != nil {
		b.Fatal(err)
	}
	id := store.ProgramIdentity(p)
	enc := store.EncodeTrace(tr, id)
	b.Run("encode", func(b *testing.B) {
		b.SetBytes(int64(len(enc)))
		for i := 0; i < b.N; i++ {
			store.EncodeTrace(tr, id)
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.SetBytes(int64(len(enc)))
		for i := 0; i < b.N; i++ {
			if _, err := store.DecodeTrace(enc, p, id); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("read", func(b *testing.B) {
		s, err := store.Open(b.TempDir(), 0)
		if err != nil {
			b.Fatal(err)
		}
		key := store.TraceKey("compress", "base", "train", id)
		if err := s.PutTrace(key, tr, id); err != nil {
			b.Fatal(err)
		}
		sink := emu.RecFunc(func(emu.RecBatch) {})
		b.SetBytes(int64(len(enc)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if !s.ReadTrace(key, p, id, sink) {
				b.Fatal("stored trace did not read")
			}
		}
	})
}

// BenchmarkReplayModes reports the fused timing core's throughput, in
// millions of retired records per second, replaying the eight train
// traces through the fused timing core. The {none} leg is the timing core
// with one meter; the others add meters ({software}, the cooperative pair
// of Figure 15) up to all six modes, so the step between legs prices the
// table-driven meter bank. The opt-trio leg is the mode group of the
// optimized binaries; the unmodified binary's group is the all-six leg,
// and base+overlay adds the ideal-ISA software overlay its pass carries
// for the opcode ablation. The rewrite leg is what a vrp binary's pass
// costs instead of an opt-trio timing pass: the energy-only sink over
// the eight vrp train traces, given each base binary's timing result.
func BenchmarkReplayModes(b *testing.B) {
	capture := func(p *prog.Program) *emu.Trace {
		rec := emu.NewTraceRecorder(p)
		m := emu.New(p)
		m.Sink = rec
		if err := m.Run(); err != nil {
			b.Fatal(err)
		}
		tr, err := rec.Trace()
		if err != nil {
			b.Fatal(err)
		}
		return tr
	}
	cfg := uarch.DefaultConfig()
	params := power.DefaultParams()
	optTrio := []power.GatingMode{power.GateSoftware, power.GateCooperative, power.GateCooperativeSig}
	var traces, rewrites []*emu.Trace
	var ideal [][]isa.Width
	var timed []*uarch.Result
	var events, rewriteEvents int64
	for _, w := range workload.All() {
		p, err := w.Build(workload.Train)
		if err != nil {
			b.Fatal(err)
		}
		tr := capture(p)
		r, err := vrp.Analyze(p, vrp.Options{Mode: vrp.Useful, Opcodes: isa.FullOpcodeSet()})
		if err != nil {
			b.Fatal(err)
		}
		u, err := vrp.Analyze(p, vrp.Options{Mode: vrp.Useful})
		if err != nil {
			b.Fatal(err)
		}
		rw := capture(u.Apply())
		base, err := uarch.ReplayModes(tr, cfg, params, []power.GatingMode{power.GateNone})
		if err != nil {
			b.Fatal(err)
		}
		traces = append(traces, tr)
		ideal = append(ideal, r.Width)
		rewrites = append(rewrites, rw)
		timed = append(timed, base[0])
		events += tr.Len()
		rewriteEvents += rw.Len()
	}
	for _, leg := range []struct {
		name    string
		modes   []power.GatingMode
		overlay bool
	}{
		{"none", []power.GatingMode{power.GateNone}, false},
		{"software", []power.GatingMode{power.GateSoftware}, false},
		{"coop-pair", []power.GatingMode{power.GateCooperative, power.GateCooperativeSig}, false},
		{"all6", power.Modes(), false},
		{"base-trio", []power.GatingMode{power.GateNone, power.GateHWSize, power.GateHWSignificance}, false},
		{"opt-trio", optTrio, false},
		{"base+overlay", power.Modes(), true},
	} {
		b.Run(leg.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for k, tr := range traces {
					var overlays [][]isa.Width
					if leg.overlay {
						overlays = ideal[k : k+1]
					}
					sim, err := uarch.NewMulti(tr.Program(), cfg, params, leg.modes, overlays...)
					if err != nil {
						b.Fatal(err)
					}
					tr.Records(sim)
					sim.FinishAll()
				}
			}
			b.ReportMetric(float64(events*int64(b.N))/b.Elapsed().Seconds()/1e6, "MIPS")
		})
	}
	b.Run("rewrite", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for k, tr := range rewrites {
				sink, err := uarch.NewRewrite(tr.Program(), params, optTrio, timed[k])
				if err != nil {
					b.Fatal(err)
				}
				tr.Records(sink)
				sink.FinishAll()
			}
		}
		b.ReportMetric(float64(rewriteEvents*int64(b.N))/b.Elapsed().Seconds()/1e6, "MIPS")
	})
}

// benchFigureMatrix runs an experiment on a fresh suite live (no store:
// each distinct binary costs one emulation) and over a warm store (a cold
// run fills it before timing starts, so every traversal is a streamed
// store read and nothing is emulated).
func benchFigureMatrix(b *testing.B, run func(s *harness.Suite) error) {
	b.Run("live", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := run(harness.NewSuite(true)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("store", func(b *testing.B) {
		st, err := store.Open(b.TempDir(), 0)
		if err != nil {
			b.Fatal(err)
		}
		fill := harness.NewSuite(true)
		fill.Store = st
		if err := run(fill); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s := harness.NewSuite(true)
			s.Store = st
			if err := run(s); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFigure3Matrix measures the Figure 3 matrix from a fresh suite
// (every workload built, analysed and simulated for the base and VRP
// variants), live and over a warm store. Each distinct binary costs one
// traversal — an emulation, or a streamed read of its stored trace —
// feeding its fused pass. Each pass accrues its binary's whole role group
// (six meters on the base binary, three on the VRP binary), of which
// Figure 3 reads one: the price of one pass per binary in a full
// evaluation.
func BenchmarkFigure3Matrix(b *testing.B) {
	benchFigureMatrix(b, func(s *harness.Suite) error {
		_, err := s.Figure3(benchCtx)
		return err
	})
}

// BenchmarkFigureFamilyMatrix measures the Figure 3+8 matrices plus the
// experiments that read the same binaries again (width histograms of
// Figures 2/7, the hardware and cooperative modes of Figures 13/14/15):
// the evaluation's whole energy matrix. Each distinct binary is traversed
// once, however many variant labels build it: that one traversal feeds
// its record profile, which every histogram sums, and its one fused pass,
// which accrues every mode the binary is asked for.
func BenchmarkFigureFamilyMatrix(b *testing.B) {
	benchFigureMatrix(b, func(s *harness.Suite) error {
		if _, err := s.Figure2(benchCtx); err != nil {
			return err
		}
		if _, err := s.Figure3(benchCtx); err != nil {
			return err
		}
		if _, err := s.Figure7(benchCtx, 50); err != nil {
			return err
		}
		if _, err := s.Figure8(benchCtx); err != nil {
			return err
		}
		if _, err := s.Figure13(benchCtx); err != nil {
			return err
		}
		if _, err := s.Figure14(benchCtx); err != nil {
			return err
		}
		_, err := s.Figure15(benchCtx, 50)
		return err
	})
}

// BenchmarkSuiteParallel measures the live Figure 3 matrix (every
// workload built, analysed, and simulated twice) sequentially vs fanned
// out over the full worker pool, making the suite-level scaling visible
// in the bench log.
func BenchmarkSuiteParallel(b *testing.B) {
	for _, cfg := range []struct {
		name    string
		workers int
	}{{"seq", 1}, {"par", 0}} {
		b.Run(cfg.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s := harness.NewSuite(true)
				s.Workers = cfg.workers
				if _, err := s.Figure3(benchCtx); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkThresholdSweep measures the single-pass threshold sweep
// against its pre-sweep equivalent — independent per-threshold runs on
// fresh suites. The sweep leg profiles each workload exactly once for
// the whole paper grid (asserted via the TrainEmulations probe); the
// perthreshold leg repays the train emulation and baseline analysis at
// every grid point. The fresh leg runs Figure 15 at 40 thresholds no
// earlier request used, on a suite one Figure 15 run has warmed: each
// pays only the threshold's selection and labels, since the profile
// transforms each distinct selection once and a selection's binary is
// already simulated. All three report grid throughput as cells/s.
func BenchmarkThresholdSweep(b *testing.B) {
	grid := harness.Thresholds
	b.Run("sweep", func(b *testing.B) {
		var trains int64
		for i := 0; i < b.N; i++ {
			s := harness.NewSuite(true)
			if _, err := s.Sweep(benchCtx, "fig4", grid); err != nil {
				b.Fatal(err)
			}
			trains = s.TrainEmulations()
			if want := int64(len(s.Names())); trains != want {
				b.Fatalf("sweep performed %d train emulations, want %d", trains, want)
			}
		}
		b.ReportMetric(float64(len(grid)*b.N)/b.Elapsed().Seconds(), "cells/s")
		b.ReportMetric(float64(trains), "train-emus")
	})
	b.Run("perthreshold", func(b *testing.B) {
		var trains int64
		for i := 0; i < b.N; i++ {
			trains = 0
			for _, th := range grid {
				s := harness.NewSuite(true)
				if _, err := s.RunExperiment(benchCtx, "fig4", th); err != nil {
					b.Fatal(err)
				}
				trains += s.TrainEmulations()
			}
		}
		b.ReportMetric(float64(len(grid)*b.N)/b.Elapsed().Seconds(), "cells/s")
		b.ReportMetric(float64(trains), "train-emus")
	})
	b.Run("fresh", func(b *testing.B) {
		const fresh = 40
		s := harness.NewSuite(true)
		if _, err := s.RunExperiment(benchCtx, "fig15", 50); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := 0; j < fresh; j++ {
				// Spread over [20, 120) like service-mix's fresh
				// thresholds, distinct across iterations.
				th := 20 + 100*math.Mod(float64(i*fresh+j+1)*0.6180339887498949, 1)
				if _, err := s.RunExperiment(benchCtx, "fig15", th); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ReportMetric(float64(fresh*b.N)/b.Elapsed().Seconds(), "cells/s")
	})
}

func BenchmarkEmulator(b *testing.B) {
	w, _ := workload.ByName("compress")
	p, _ := w.Build(workload.Train)
	res, _ := emu.Execute(p)
	b.SetBytes(res.Dyn) // report emulated instructions as throughput
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := emu.Execute(p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUarchSim(b *testing.B) {
	w, _ := workload.ByName("compress")
	p, _ := w.Build(workload.Train)
	cfg := uarch.DefaultConfig()
	params := power.DefaultParams()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := uarch.Run(p, cfg, params, power.GateSoftware); err != nil {
			b.Fatal(err)
		}
	}
}
