package harness

import (
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
// drivers do. oneOff counts the timed (opcode-row) binaries that are
// neither the workload's base nor its vrp binary, by the oracle's own
// hashing: the live timing passes the suite may make.
func liveAblationCells(t *testing.T, s *Suite) (opcodes, analysis [][]float64, oneOff int64) {
	t.Helper()
	names := s.Names()
	suiteIDs := map[string]map[store.Hash]bool{}
	for _, name := range names {
		p, err := s.Program(name, s.evalClass())
		if err != nil {
			t.Fatal(err)
		}
		r, err := vrp.Analyze(p, vrp.Options{Mode: vrp.Useful})
		if err != nil {
			t.Fatal(err)
		}
		suiteIDs[name] = map[store.Hash]bool{store.ProgramIdentity(p): true, store.ProgramIdentity(r.Apply()): true}
	}
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
			base, err := uarch.Run(p, s.Uarch, s.Power, power.GateNone)
			if err != nil {
				t.Fatal(err)
			}
			q := build(name, opts)
			if !suiteIDs[name][store.ProgramIdentity(q)] {
				oneOff++
			}
			g, err := uarch.Run(q, s.Uarch, s.Power, power.GateSoftware)
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
	return opcodes, analysis, oneOff
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

// TestAblationsMatchLiveOracle: the ablations resolve each row's binary by
// identity, histogram it from the base binary's record profile and serve
// suite binaries from the suite's caches, yet every cell equals the live,
// uncached computation, while each timed binary costs one traversal: one
// fused pass per simulated binary (the base-ISA row's software meter
// rides the unmodified binary's pass) and one live timing pass per timed
// binary the evaluation does not otherwise simulate. It runs on the quick
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
		opcodes, analysis, oneOff := liveAblationCells(t, s)
		rep, err := s.AblationOpcodeSets(testCtx)
		if err != nil {
			t.Fatal(err)
		}
		checkCells(t, rep, opcodes)
		if rep, err = s.AblationAnalysis(testCtx); err != nil {
			t.Fatal(err)
		}
		checkCells(t, rep, analysis)
		if got := s.ablationRuns.Load(); got != oneOff {
			t.Errorf("%d live ablation traversals, oracle counts %d one-off binaries", got, oneOff)
		}
		passes := map[binKey]int{}
		for k := range s.families.m {
			passes[k.bin]++
		}
		for bin, n := range passes {
			if n != 1 {
				t.Errorf("%v: %d fused passes, want 1", bin, n)
			}
		}
	})
}

// quickAblationTraversals is how many live ablation traversals a quick
// RunAll makes: the 8 ideal-ISA binaries, the timed one-offs that are
// neither a base nor a vrp binary. The base-ISA row rebuilds one of the
// two on every kernel, and the analysis rows are only histogrammed.
const quickAblationTraversals = 8

// TestRunAllAblationTraversals is the one-off traversal probe: each timed
// ablation binary the evaluation does not otherwise simulate costs
// exactly one live timing pass, and none of them is counted by
// Emulations — a quick evaluation emulates its 18 simulated binaries cold
// and none warm.
func TestRunAllAblationTraversals(t *testing.T) {
	for i, in := range quickInputs {
		t.Run(in.name, func(t *testing.T) {
			quickReports(t, i)
			s := quickRuns[i].suite
			if got := s.ablationRuns.Load(); got != quickAblationTraversals {
				t.Errorf("%d live ablation traversals, want %d", got, quickAblationTraversals)
			}
			if got, distinct := s.Emulations(), distinctBinaries(t, s, simulatedLabels()...); got != 18 || got != distinct {
				t.Errorf("%d emulations, want 18, one per distinct simulated binary (hashing counts %d)", got, distinct)
			}
		})
	}
	t.Run("warm", func(t *testing.T) {
		dir := t.TempDir()
		for _, pass := range []string{"cold", "warm"} {
			s := NewSuite(true)
			s.Store = storeSuite(t, dir)
			if _, err := s.RunAll(testCtx, 50); err != nil {
				t.Fatal(err)
			}
			if got := s.ablationRuns.Load(); got != quickAblationTraversals {
				t.Errorf("%s: %d live ablation traversals, want %d", pass, got, quickAblationTraversals)
			}
			if pass == "warm" && s.Emulations() != 0 {
				t.Errorf("warm: %d emulations, want 0", s.Emulations())
			}
		}
	})
}
