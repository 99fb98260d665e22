package harness

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"opgate/internal/power"
	"opgate/internal/progen"
	"opgate/internal/uarch"
	"opgate/internal/workload"
)

// synthSuite returns a quick suite extended with a width-spectrum-spanning
// trio of generated workloads.
func synthSuite() *Suite {
	s := NewSuite(true)
	s.Synthetics = []string{
		workload.SyntheticName(progen.Narrow, 2, progen.Small),
		workload.SyntheticName(progen.Pointer, 2, progen.Small),
		workload.SyntheticName(progen.Wide, 2, progen.Small),
	}
	return s
}

// TestNamesIncludeSynthetics: registered synthetics extend the suite
// order after the paper's eight benchmarks.
func TestNamesIncludeSynthetics(t *testing.T) {
	s := synthSuite()
	names := s.Names()
	if len(names) != 8+len(s.Synthetics) {
		t.Fatalf("suite has %d names, want %d", len(names), 8+len(s.Synthetics))
	}
	if names[0] != "compress" || !strings.HasPrefix(names[8], "syn:") {
		t.Errorf("unexpected suite order: %v", names)
	}
}

// TestSyntheticSuiteMatchesLiveRuns is the live oracle of the trace
// pipeline over the expanded workload list: for every name, variant and
// gating mode of the variant binary's role group, the suite's fused Sim
// equals an independent uarch.Run of the variant's program (every mode
// on a base binary), and DynWidthHistogram equals a tally over a live
// packed emulation — while the suite itself emulates each distinct binary
// exactly once, however many labels build it. A mode outside the role
// group is an error and starts no traversal.
func TestSyntheticSuiteMatchesLiveRuns(t *testing.T) {
	s := synthSuite()
	variants := []string{"base", "vrp", "vrp-conv", "vrs50"}
	for _, name := range s.Names() {
		for _, variant := range variants {
			b, err := s.variantBinary(name, variant)
			if err != nil {
				t.Fatal(err)
			}
			isBase, err := s.isBase(b)
			if err != nil {
				t.Fatal(err)
			}
			group := modeGroups[roleGroup(isBase)]
			if isBase && len(group) != len(power.Modes()) {
				t.Fatalf("base role group times %d modes, want all %d", len(group), len(power.Modes()))
			}
			for _, mode := range power.Modes() {
				if slices.Contains(group, mode) {
					continue
				}
				before := s.traversals.Load()
				if _, err := s.Sim(name, variant, mode); err == nil {
					t.Errorf("%s/%s/%v: out-of-role Sim succeeded", name, variant, mode)
				}
				if got := s.traversals.Load(); got != before {
					t.Errorf("%s/%s/%v: out-of-role Sim made %d traversals", name, variant, mode, got-before)
				}
			}
			for _, mode := range group {
				got, err := s.Sim(name, variant, mode)
				if err != nil {
					t.Fatal(err)
				}
				want, err := uarch.Run(b.p, uarch.DefaultConfig(), power.DefaultParams(), mode)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s/%s/%v: suite simulation differs from a live uarch.Run", name, variant, mode)
				}
			}
			got, err := s.DynWidthHistogram(name, variant)
			if err != nil {
				t.Fatal(err)
			}
			want, err := dynHistogramOf(b.p)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("%s/%s: width histogram %v, live tally %v", name, variant, got, want)
			}
		}
	}
	if got, want := s.Emulations(), distinctBinaries(t, s, variants...); got != want {
		t.Errorf("suite performed %d emulations, want %d (one per distinct binary)", got, want)
	}
}

// TestSyntheticRowsAppearInReports: synthetic workloads surface as rows
// in the per-benchmark reports, with sane baseline results.
func TestSyntheticRowsAppearInReports(t *testing.T) {
	s := synthSuite()
	r, err := s.Figure3(testCtx)
	if err != nil {
		t.Fatal(err)
	}
	// Figure 3 is a suite average; per-benchmark presence is visible in
	// Table 3's width matrix companion, the baseline sims.
	for _, name := range s.Synthetics {
		base, err := s.Baseline(name)
		if err != nil {
			t.Fatalf("baseline %s: %v", name, err)
		}
		if base.Cycles <= 0 || base.Instructions <= 0 || base.Energy.Total() <= 0 {
			t.Errorf("%s: degenerate baseline (cycles=%d instrs=%d)", name, base.Cycles, base.Instructions)
		}
	}
	if len(r.Rows) == 0 {
		t.Error("Figure 3 rendered no rows")
	}
}

// TestSuiteRejectsUnknownSynthetic: a bad synthetic name surfaces as an
// error from the driver rather than a panic or silent drop.
func TestSuiteRejectsUnknownSynthetic(t *testing.T) {
	s := NewSuite(true)
	s.Synthetics = []string{"syn:quantum/small/1"}
	if _, err := s.Baseline("syn:quantum/small/1"); err == nil {
		t.Error("unknown synthetic family produced a baseline")
	}
}
