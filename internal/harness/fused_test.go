package harness

import (
	"reflect"
	"slices"
	"testing"

	"opgate/internal/power"
	"opgate/internal/prog"
	"opgate/internal/store"
	"opgate/internal/uarch"
	"opgate/internal/workload"
)

// paperLabels is every variant label a quick evaluation resolves: base,
// vrp, vrp-conv and one vrs<θ> per paper threshold.
func paperLabels() []string {
	return append(simulatedLabels(), "vrp-conv")
}

// simulatedLabels are the labels a quick evaluation simulates: base, vrp
// and one vrs<θ> per paper threshold. vrp-conv is only histogrammed,
// from the base binary's record profile, so it costs no traversal.
func simulatedLabels() []string {
	labels := []string{"base", "vrp"}
	for _, th := range Thresholds {
		labels = append(labels, vrsVariant(th))
	}
	return labels
}

// labelGroups partitions the labels of one workload by the identity of
// the binary each builds, hashing every program afresh rather than
// reading the suite's keys. Groups keep first-label order.
func labelGroups(t *testing.T, s *Suite, name string, labels []string) [][]string {
	t.Helper()
	index := map[store.Hash]int{}
	var groups [][]string
	for _, label := range labels {
		b, err := s.variantBinary(name, label)
		if err != nil {
			t.Fatal(err)
		}
		id := store.ProgramIdentity(b.p)
		i, ok := index[id]
		if !ok {
			i = len(groups)
			index[id] = i
			groups = append(groups, nil)
		}
		groups[i] = append(groups[i], label)
	}
	return groups
}

// roleMode is a gating mode of the role group of the binary a label
// builds: the ungated baseline on the workload's unmodified binary,
// software gating on any other.
func roleMode(s *Suite, name, label string) (power.GatingMode, error) {
	b, err := s.variantBinary(name, label)
	if err != nil {
		return power.GateNone, err
	}
	isBase, err := s.isBase(b)
	if err != nil || !isBase {
		return power.GateSoftware, err
	}
	return power.GateNone, nil
}

// distinctBinaries counts the distinct (workload, identity) pairs that
// the labels build across the suite's workloads: the number of emulations
// the trace layer's contract allows for touching all of them.
func distinctBinaries(t *testing.T, s *Suite, labels ...string) int64 {
	t.Helper()
	var n int64
	for _, name := range s.Names() {
		n += int64(len(labelGroups(t, s, name, labels)))
	}
	return n
}

// TestFigureMatricesEmulateOncePerBinary is the emulation-count probe of
// the trace layer's contract: regenerating the Figure 3 and Figure 8
// matrices must functionally emulate each distinct binary exactly once —
// the trace capture — however many variant labels build it, with every
// simulation and every later reuse (histograms, repeated calls) served
// from the cache.
func TestFigureMatricesEmulateOncePerBinary(t *testing.T) {
	s := NewSuite(true)
	if _, err := s.Figure3(testCtx); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Figure8(testCtx); err != nil {
		t.Fatal(err)
	}
	// Labels touched: base, vrp, and the five VRS thresholds.
	want := distinctBinaries(t, s, simulatedLabels()...)
	if got := s.Emulations(); got != want {
		t.Errorf("Figure 3+8 matrices performed %d emulations, want %d (one per distinct binary)", got, want)
	}

	// Figure 2's histograms are the base binaries' record profiles under
	// the vrp and vrp-conv widths: no new emulation.
	if _, err := s.Figure2(testCtx); err != nil {
		t.Fatal(err)
	}
	if got := s.Emulations(); got != want {
		t.Errorf("after Figure 2: %d emulations, want %d (none added)", got, want)
	}

	// DynWidthHistogram is memoized: repeated calls add no emulations at
	// all.
	for _, name := range s.Names() {
		if _, err := s.DynWidthHistogram(name, "vrp"); err != nil {
			t.Fatal(err)
		}
		if _, err := s.DynWidthHistogram(name, "vrp"); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Emulations(); got != want {
		t.Errorf("DynWidthHistogram re-emulated: %d emulations, want %d", got, want)
	}
}

// coreBinaries counts the distinct binaries the labels build across the
// suite's workloads that are not width-only rewrites of their workload's
// base binary, comparing instructions afresh rather than reading the
// suite's marks: the timing-core passes the traversal contract allows.
// Every other binary's traversal feeds an energy-only sink.
func coreBinaries(t *testing.T, s *Suite, labels ...string) int64 {
	t.Helper()
	var n int64
	for _, name := range s.Names() {
		base, err := s.variantBinary(name, "base")
		if err != nil {
			t.Fatal(err)
		}
		for _, group := range labelGroups(t, s, name, labels) {
			b, err := s.variantBinary(name, group[0])
			if err != nil {
				t.Fatal(err)
			}
			if store.ProgramIdentity(b.p) == store.ProgramIdentity(base.p) || !sameButWidths(base.p, b.p) {
				n++
			}
		}
	}
	return n
}

// sameButWidths reports whether q is p with only instruction widths
// changed.
func sameButWidths(p, q *prog.Program) bool {
	if len(p.Ins) != len(q.Ins) {
		return false
	}
	for i := range p.Ins {
		in := q.Ins[i]
		in.Width = p.Ins[i].Width
		if in != p.Ins[i] {
			return false
		}
	}
	return true
}

// TestRunAllOneFusedPassPerBinary: mode groups follow binary roles, so a
// full evaluation simulates every binary in exactly one fused timing
// pass — one pass per distinct simulated binary (simulatedLabels).
func TestRunAllOneFusedPassPerBinary(t *testing.T) {
	for i, in := range quickInputs {
		t.Run(in.name, func(t *testing.T) {
			quickReports(t, i)
			s := quickRuns[i].suite
			if got, want := int64(len(s.passes.m)), distinctBinaries(t, s, simulatedLabels()...); got != want {
				t.Errorf("%d fused passes, want %d (one per distinct simulated binary)", got, want)
			}
		})
	}
}

// TestLabelsSharingABinaryShareResults: labels that build one binary are
// one cache entry. Every label after the first of a group returns the
// first label's *uarch.Result and costs no emulation; labels that build
// different binaries keep apart. VRS emits the VRP binary on most
// kernels, but specializes m88ksim and vortex, so there vrs50 and vrp
// must stay separate.
func TestLabelsSharingABinaryShareResults(t *testing.T) {
	s := NewSuite(true)
	shared := 0
	for _, name := range s.Names() {
		groups := labelGroups(t, s, name, paperLabels())
		result := map[string]*uarch.Result{}
		for _, group := range groups {
			before := s.Emulations()
			r, err := s.Sim(name, group[0], power.GateSoftware)
			if err != nil {
				t.Fatal(err)
			}
			for _, label := range group {
				result[label] = r
			}
			if len(group) > 1 {
				shared++
			}
			for _, label := range group[1:] {
				got, err := s.Sim(name, label, power.GateSoftware)
				if err != nil {
					t.Fatal(err)
				}
				if got != r {
					t.Errorf("%s: %s and %s build one binary but return different results", name, group[0], label)
				}
			}
			if got := s.Emulations() - before; got != 1 {
				t.Errorf("%s: labels %v sharing one binary cost %d emulations, want 1", name, group, got)
			}
		}
		if name == "m88ksim" || name == "vortex" {
			if result["vrs50"] == result["vrp"] {
				t.Errorf("%s: vrs50 shares the vrp result; VRS specializes this kernel", name)
			}
		}
	}
	if shared == 0 {
		t.Error("no two labels build one binary; the sharing path went unexercised")
	}
}

// TestRunAllOneTraversalPerBinary is the traversal probe: a full
// evaluation reads each distinct simulated binary's records exactly once,
// however its consumers (fused timing, width histograms, Table 3, Figures
// 6 and 12) and its labels spread over it, and never traverses a binary
// it only histograms. That holds with no store, over a cold store and
// over a warm one, when the experiments run one at a time on one suite,
// and with generated workloads. The ablations' one-off binaries ride the
// base binaries' passes as overlays and add none. It is also the
// timing-core probe: only the binaries that are not width-only rewrites
// run the core, the 8 base binaries and 2 VRS binaries of a quick run;
// the 8 vrp binaries' traversals feed energy-only sinks.
func TestRunAllOneTraversalPerBinary(t *testing.T) {
	check := func(t *testing.T, s *Suite, emulations int64) {
		t.Helper()
		want := distinctBinaries(t, s, simulatedLabels()...)
		if got := s.traversals.Load(); got != want {
			t.Errorf("%d traversals, want %d (one per distinct simulated binary)", got, want)
		}
		if got, want := s.cores.Load(), coreBinaries(t, s, simulatedLabels()...); got != want {
			t.Errorf("%d timing-core passes, want %d (one per simulated binary that is no width-only rewrite)", got, want)
		}
		if got := s.Emulations(); got != emulations {
			t.Errorf("%d emulations, want %d", got, emulations)
		}
		if got, want := s.TrainEmulations(), int64(len(s.Names())); got != want {
			t.Errorf("%d train emulations, want %d (one per workload)", got, want)
		}
	}
	quick := func(t *testing.T, s *Suite, emulations int64) {
		t.Helper()
		if got := distinctBinaries(t, s, simulatedLabels()...); got != 18 {
			t.Fatalf("quick suite simulates %d distinct binaries, want 18", got)
		}
		if got := coreBinaries(t, s, simulatedLabels()...); got != 10 {
			t.Fatalf("quick suite times %d binaries in the core, want 10", got)
		}
		check(t, s, emulations)
		if got := overlayCount(t, s); got != 8 {
			t.Errorf("base passes carry %d overlays, want 8 (the ideal ISA's, one per kernel)", got)
		}
	}
	for i, in := range quickInputs {
		t.Run(in.name, func(t *testing.T) {
			quickReports(t, i)
			quick(t, quickRuns[i].suite, 18)
		})
	}
	t.Run("store", func(t *testing.T) {
		storeReports(t)
		quick(t, storeRun.suite, 0)
	})
	t.Run("one-by-one", func(t *testing.T) {
		s := NewSuite(true)
		for _, e := range Experiments() {
			if _, err := s.RunExperiment(testCtx, e.ID, 50); err != nil {
				t.Fatal(err)
			}
		}
		quick(t, s, 18)
	})
	t.Run("synthetic", func(t *testing.T) {
		s := synthSuite()
		if _, err := s.RunAll(testCtx, 50); err != nil {
			t.Fatal(err)
		}
		check(t, s, 24)
	})
}

// TestWidthOnlyRewritesEmulateOnlyTheBase: on a fresh suite, the
// conventional-VRP histograms and Table 3 (measured on the proposed-VRP
// binaries) read the base binaries' record profiles under their own
// widths, so they emulate the base binaries and nothing else.
func TestWidthOnlyRewritesEmulateOnlyTheBase(t *testing.T) {
	s := NewSuite(true)
	for _, name := range s.Names() {
		if _, err := s.DynWidthHistogram(name, "vrp-conv"); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Table3(testCtx); err != nil {
		t.Fatal(err)
	}
	want := distinctBinaries(t, s, "base")
	if got := s.Emulations(); got != want {
		t.Errorf("%d emulations, want %d (the base binaries only)", got, want)
	}
	if got := s.traversals.Load(); got != want {
		t.Errorf("%d traversals, want %d (the base binaries only)", got, want)
	}
}

// TestWidthOnlyIsTheBinarysProperty: whether a binary's pass runs the
// timing core is decided by the binary, not by the label that reaches it
// first. compress's VRS selects nothing, so its vrs50 label builds the
// vrp binary; asked first, it still takes the base binary's timing pass
// and charges only its own energy, and the vrp label then reads that
// same pass. Its results equal the binary's own fused timing pass.
func TestWidthOnlyIsTheBinarysProperty(t *testing.T) {
	s := NewSuite(true)
	soft := slices.Index(modeGroups[1], power.GateSoftware)
	first, err := s.Sim("compress", "vrs50", power.GateSoftware)
	if err != nil {
		t.Fatal(err)
	}
	vrs, err := s.variantBinary("compress", "vrs50")
	if err != nil {
		t.Fatal(err)
	}
	vrpBin, err := s.variantBinary("compress", "vrp")
	if err != nil {
		t.Fatal(err)
	}
	if vrs.key != vrpBin.key {
		t.Fatal("compress's vrs50 label no longer builds its vrp binary; the test cannot observe label order")
	}
	if got := s.cores.Load(); got != 1 {
		t.Errorf("vrs50 asked first ran the timing core %d times, want 1 (its base binary's pass only)", got)
	}
	if got := s.traversals.Load(); got != 2 {
		t.Errorf("%d traversals, want 2 (the base binary and the rewrite)", got)
	}
	if got, err := s.Sim("compress", "vrp", power.GateSoftware); err != nil {
		t.Fatal(err)
	} else if got != first {
		t.Error("vrp and vrs50 build one binary but return different results")
	}
	if got := s.traversals.Load(); got != 2 {
		t.Errorf("vrp after vrs50: %d traversals, want 2", got)
	}
	live, err := uarch.NewMulti(vrs.p, uarch.DefaultConfig(), power.DefaultParams(), modeGroups[1])
	if err != nil {
		t.Fatal(err)
	}
	if err := s.traverse(vrs, live); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(live.FinishAll()[soft], first) {
		t.Error("the rewrite's energy-only results differ from its own timing pass")
	}
}

// TestVRSProfileCountsAreTheBaseRecords: in quick mode the train binary is
// the evaluation binary, so the block profile each kernel's VRS profile
// reads from its train run equals the base binary's record profile — two
// sinks over the same retirement stream.
func TestVRSProfileCountsAreTheBaseRecords(t *testing.T) {
	s := NewSuite(true)
	checked := 0
	for _, name := range s.Names() {
		if workload.IsTrace(name) {
			continue
		}
		checked++
		pf, err := s.vrsProfile(name)
		if err != nil {
			t.Fatal(err)
		}
		base, err := s.records(name, "base")
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(pf.Counts(), base.counts) {
			t.Errorf("%s: VRS profile counts differ from the base binary's record profile", name)
		}
	}
	if checked == 0 {
		t.Fatal("the suite names no live kernel; the test compares nothing")
	}
}
