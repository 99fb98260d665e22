package harness

import (
	"slices"
	"testing"

	"opgate/internal/emu"
	"opgate/internal/isa"
	"opgate/internal/power"
	"opgate/internal/prog"
	"opgate/internal/store"
	"opgate/internal/uarch"
	"opgate/internal/vrp"
)

// dynHistogramOf runs a program live and tallies retired width-bearing
// instruction widths: the oracle of the suite's trace-backed histograms.
func dynHistogramOf(p *prog.Program) (vrp.WidthHistogram, error) {
	var h vrp.WidthHistogram
	m := emu.New(p)
	defer m.Release()
	m.Sink = widthSink{&h}
	if err := m.Run(); err != nil {
		return h, err
	}
	return h, nil
}

// widthSink tallies retired width-bearing instruction widths from each
// packed record's own op/width columns: the record-scan oracle of the
// suite's count-based histograms (recProfile.widths).
type widthSink struct{ h *vrp.WidthHistogram }

func (w widthSink) ConsumeRecs(b emu.RecBatch) {
	for i, op := range b.Op {
		if vrp.CountsWidth(isa.Op(op)) {
			w.h.Add(isa.Width(b.WBytes[i]), 1)
		}
	}
}

// Every row of the two ablations as a plain VRP configuration, in report
// order. The suite serves some rows from variant labels ("vrp",
// "vrp-conv") and the rest by identity; the oracle builds all of them
// afresh.
var (
	oracleOpcodeRows = []vrp.Options{
		{Mode: vrp.Useful, Opcodes: isa.BaseOpcodeSet()},
		{Mode: vrp.Useful},
		{Mode: vrp.Useful, Opcodes: isa.FullOpcodeSet()},
	}
	oracleAnalysisRows = []vrp.Options{
		{Mode: vrp.Useful},
		{Mode: vrp.Conventional},
		{Mode: vrp.Useful, DisableLoopAnalysis: true},
		{Mode: vrp.Useful, DisableBranchRefinement: true},
		{Mode: vrp.Conventional, DisableLoopAnalysis: true, DisableBranchRefinement: true},
	}
)

// liveAblationCells recomputes every cell of the two ablation reports
// without the suite's caches: for each workload, each row's configuration
// is analysed and applied, simulated by an independent software-gated
// uarch.Run against an independent ungated baseline, and tallied by a
// separate live emulation. Averages accumulate in suite order, as the
// drivers do. overlays counts the timed one-off (opcode-set) rows whose
// binary is not the workload's base binary, by the oracle's own hashing:
// the software overlays the suite's base passes carry.
func liveAblationCells(t *testing.T, s *Suite) (opcodes, analysis [][]float64, overlays int64) {
	t.Helper()
	names := s.Names()
	build := func(name string, opts vrp.Options) *prog.Program {
		p, err := s.Program(name, s.evalClass())
		if err != nil {
			t.Fatal(err)
		}
		r, err := vrp.Analyze(p, opts)
		if err != nil {
			t.Fatal(err)
		}
		return r.Apply()
	}
	for _, opts := range oracleOpcodeRows {
		var savedSum float64
		var hist vrp.WidthHistogram
		for _, name := range names {
			p, err := s.Program(name, s.evalClass())
			if err != nil {
				t.Fatal(err)
			}
			base, err := uarch.Run(p, uarch.DefaultConfig(), power.DefaultParams(), power.GateNone)
			if err != nil {
				t.Fatal(err)
			}
			q := build(name, opts)
			if opts.Opcodes != nil && store.ProgramIdentity(q) != store.ProgramIdentity(p) {
				overlays++
			}
			g, err := uarch.Run(q, uarch.DefaultConfig(), power.DefaultParams(), power.GateSoftware)
			if err != nil {
				t.Fatal(err)
			}
			_, saved := power.Savings(base.Energy, g.Energy)
			savedSum += saved
			h, err := dynHistogramOf(q)
			if err != nil {
				t.Fatal(err)
			}
			for i := range hist.Count {
				hist.Count[i] += h.Count[i]
			}
		}
		opcodes = append(opcodes, []float64{savedSum / float64(len(names)), hist.Fraction(3)})
	}
	for _, opts := range oracleAnalysisRows {
		var hist vrp.WidthHistogram
		for _, name := range names {
			h, err := dynHistogramOf(build(name, opts))
			if err != nil {
				t.Fatal(err)
			}
			for i := range hist.Count {
				hist.Count[i] += h.Count[i]
			}
		}
		analysis = append(analysis, []float64{hist.Fraction(3)})
	}
	return opcodes, analysis, overlays
}

// checkCells asserts every value of a report equals the oracle's cell.
func checkCells(t *testing.T, rep *Report, want [][]float64) {
	t.Helper()
	if len(rep.Rows) != len(want) {
		t.Fatalf("%s: %d rows, oracle has %d", rep.ID, len(rep.Rows), len(want))
	}
	for i, row := range rep.Rows {
		if len(row.Values) != len(want[i]) {
			t.Fatalf("%s/%s: %d values, oracle has %d", rep.ID, row.Label, len(row.Values), len(want[i]))
		}
		for j, v := range row.Values {
			if v != want[i][j] {
				t.Errorf("%s/%s/%s: %v, live oracle %v", rep.ID, row.Label, rep.Columns[j], v, want[i][j])
			}
		}
	}
}

func reportByID(t *testing.T, reports []*Report, id string) *Report {
	t.Helper()
	for _, r := range reports {
		if r.ID == id {
			return r
		}
	}
	t.Fatalf("no %s report", id)
	return nil
}

// TestAblationsMatchLiveOracle: the ablations analyse each row's
// configuration once, histogram it from the base binary's record profile,
// time the one-off rows as software overlays on the base binary's pass
// and serve suite binaries from the suite's caches, yet every cell equals
// the live, uncached computation, while the ablations cost no traversal
// beyond one fused pass per base or vrp binary. It runs on the quick
// evaluation (no store and a cold store) and on a synthetic-extended
// suite, whose generated programs meet different identity coincidences
// than the kernels.
func TestAblationsMatchLiveOracle(t *testing.T) {
	opcodes, analysis, _ := liveAblationCells(t, NewSuite(true))
	for i, in := range quickInputs {
		t.Run(in.name, func(t *testing.T) {
			reports := quickReports(t, i)
			checkCells(t, reportByID(t, reports, "ablation-opcodes"), opcodes)
			checkCells(t, reportByID(t, reports, "ablation-analysis"), analysis)
		})
	}
	t.Run("synthetic", func(t *testing.T) {
		s := synthSuite()
		opcodes, analysis, overlays := liveAblationCells(t, s)
		rep, err := s.AblationOpcodeSets(testCtx)
		if err != nil {
			t.Fatal(err)
		}
		checkCells(t, rep, opcodes)
		if rep, err = s.AblationAnalysis(testCtx); err != nil {
			t.Fatal(err)
		}
		checkCells(t, rep, analysis)
		if got := overlayCount(t, s); got != overlays {
			t.Errorf("base passes carry %d overlays, oracle counts %d one-off binaries off the base", got, overlays)
		}
		// Every other timed binary is a workload's base or vrp binary,
		// and the analysis rows' histograms ride the base binary's pass.
		want := distinctBinaries(t, s, "base", "vrp")
		if got := int64(len(s.passes.m)); got != want {
			t.Errorf("%d fused passes, want %d (one per distinct base or vrp binary)", got, want)
		}
		if got := s.traversals.Load(); got != want {
			t.Errorf("%d traversals, want %d (one per fused pass)", got, want)
		}
	})
}

// overlayCount is how many software overlays the suite's base passes
// carry, over every workload whose base pass has run.
func overlayCount(t *testing.T, s *Suite) int64 {
	t.Helper()
	var n int64
	for _, name := range s.Names() {
		b, err := s.variantBinary(name, "base")
		if err != nil {
			t.Fatal(err)
		}
		if e, ok := s.passes.m[b.key]; ok {
			n += int64(len(e.val.rs) - len(modeGroups[0]))
		}
	}
	return n
}

// TestAblationsRideTheBasePass is the ablation traversal probe: the
// opcode ablation's one-off rows ride each workload's base pass as
// software overlays, so the ablations traverse nothing the evaluation
// does not simulate anyway. On every quick input (no store, a cold store
// and a warm one) a RunAll makes exactly one traversal per distinct
// simulated binary (18), emulating them cold and none warm, and a 5-point
// sweep of the opcode ablation alone traverses only its base and vrp
// binaries. On every kernel the base pass carries exactly one overlay,
// the ideal ISA's: the base-ISA row's widths are the base binary's, so it
// reads that binary's own software meter.
func TestAblationsRideTheBasePass(t *testing.T) {
	check := func(t *testing.T, s *Suite, labels []string, emulations int64) {
		t.Helper()
		if got, want := s.traversals.Load(), distinctBinaries(t, s, labels...); got != want {
			t.Errorf("%d traversals, want %d (one per distinct simulated binary)", got, want)
		}
		if got := s.Emulations(); got != emulations {
			t.Errorf("%d emulations, want %d", got, emulations)
		}
		soft := slices.Index(modeGroups[0], power.GateSoftware)
		for _, name := range s.Names() {
			b, err := s.variantBinary(name, "base")
			if err != nil {
				t.Fatal(err)
			}
			pass, err := s.binPass(b, true)
			if err != nil {
				t.Fatal(err)
			}
			if len(pass.rs) != len(modeGroups[0])+1 || len(pass.at) != len(overlaid) {
				t.Fatalf("%s: base pass times %d results for %d overlaid rows, want %d and %d", name, len(pass.rs), len(pass.at), len(modeGroups[0])+1, len(overlaid))
			}
			if pass.at[0] != soft {
				t.Errorf("%s: the base-ISA row does not read the base binary's software meter", name)
			}
			if pass.at[1] != len(modeGroups[0]) {
				t.Errorf("%s: the ideal-ISA row does not read the base pass's overlay", name)
			}
		}
	}
	for i, in := range quickInputs {
		t.Run(in.name, func(t *testing.T) {
			quickReports(t, i)
			if got := distinctBinaries(t, quickRuns[i].suite, simulatedLabels()...); got != 18 {
				t.Fatalf("quick suite simulates %d distinct binaries, want 18", got)
			}
			check(t, quickRuns[i].suite, simulatedLabels(), 18)
		})
	}
	t.Run("warm", func(t *testing.T) {
		storeReports(t)
		check(t, storeRun.suite, simulatedLabels(), 0)
	})
	t.Run("sweep", func(t *testing.T) {
		s := NewSuite(true)
		if _, err := s.Sweep(testCtx, "ablation-opcodes", sweepGrid); err != nil {
			t.Fatal(err)
		}
		check(t, s, []string{"base", "vrp"}, distinctBinaries(t, s, "base", "vrp"))
	})
}
