package harness

import (
	"bytes"
	"strings"
	"testing"

	"opgate/internal/store"
)

// sweepGrid is the paper's threshold grid, reused across the sweep tests.
var sweepGrid = []float64{110, 90, 70, 50, 30}

// TestSweepMatchesPerThresholdRuns is the sweep equivalence probe: every
// cell of Suite.Sweep must be bit-identical (canonical encoding and all)
// to a plain RunExperiment at that threshold — both with no store and
// over a store the two suites share, cold when the sweep starts
// ("uncached"): the sweep captures every binary it traverses, and the
// plain runs then read them all back. The sweep changes how the grid is
// computed, never what it contains.
func TestSweepMatchesPerThresholdRuns(t *testing.T) {
	for _, mode := range []struct {
		name  string
		store bool
	}{{"fused", false}, {"uncached", true}} {
		t.Run(mode.name, func(t *testing.T) {
			swept := NewSuite(true)
			plain := NewSuite(true)
			var st *store.Store
			if mode.store {
				var err error
				if st, err = store.Open(t.TempDir(), 0); err != nil {
					t.Fatal(err)
				}
				swept.Store, plain.Store = st, st
			}

			sw, err := swept.Sweep(testCtx, "fig6", sweepGrid)
			if err != nil {
				t.Fatal(err)
			}
			if len(sw.Cells) != len(sweepGrid) {
				t.Fatalf("sweep returned %d cells for %d thresholds", len(sw.Cells), len(sweepGrid))
			}
			for i, th := range sweepGrid {
				want, err := plain.RunExperiment(testCtx, "fig6", th)
				if err != nil {
					t.Fatal(err)
				}
				if !sw.Cells[i].Equal(want) {
					t.Errorf("cell at threshold %g differs from a plain run", th)
				}
				got, err := EncodeReports([]*Report{sw.Cells[i]})
				if err != nil {
					t.Fatal(err)
				}
				exp, err := EncodeReports([]*Report{want})
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, exp) {
					t.Errorf("cell at threshold %g is not byte-identical to a plain run", th)
				}
			}
			if st != nil {
				if got := st.Stats(); got.Puts != swept.Emulations() || got.Rejects != 0 {
					t.Errorf("the sweep stored %d traces of its %d emulations, with %d rejects", got.Puts, swept.Emulations(), got.Rejects)
				}
				if n := plain.Emulations(); n != 0 {
					t.Errorf("plain runs over the sweep's store performed %d emulations, want 0", n)
				}
			}
		})
	}
}

// TestSweepTrainEmulations is the profile-reuse probe of the tentpole:
// a K-threshold sweep performs exactly one VRS train emulation per
// workload — the profile memo serves every threshold from one train
// pass — where per-threshold Specialize calls used to pay K.
func TestSweepTrainEmulations(t *testing.T) {
	s := NewSuite(true)
	if _, err := s.Sweep(testCtx, "fig4", sweepGrid); err != nil {
		t.Fatal(err)
	}
	if got, want := s.TrainEmulations(), int64(len(s.Names())); got != want {
		t.Errorf("%d-threshold sweep performed %d train emulations, want %d (one per workload)",
			len(sweepGrid), got, want)
	}
	// Figure 4 reads only the specialization points: no suite-level
	// emulations at all.
	if got := s.Emulations(); got != 0 {
		t.Errorf("fig4 sweep performed %d suite emulations, want 0", got)
	}
	// More thresholds from the same profiles stay free.
	if _, err := s.Sweep(testCtx, "fig4", []float64{65, 45}); err != nil {
		t.Fatal(err)
	}
	if got, want := s.TrainEmulations(), int64(len(s.Names())); got != want {
		t.Errorf("grown grid re-profiled: %d train emulations, want %d", got, want)
	}
}

// TestSweepSharesBaselineSims: a sweep of a simulation-bearing experiment
// pays one trace per distinct binary — the base/vrp binaries are shared
// across the whole grid, and a vrs<θ> label adds a trace only when it
// builds a binary no other label has.
func TestSweepSharesBaselineSims(t *testing.T) {
	grid := []float64{110, 50}
	s := NewSuite(true)
	if _, err := s.Sweep(testCtx, "fig15", grid); err != nil {
		t.Fatal(err)
	}
	// Labels touched per workload: base, vrp, and one vrs<θ> per grid
	// point.
	want := distinctBinaries(t, s, "base", "vrp", vrsVariant(grid[0]), vrsVariant(grid[1]))
	if got := s.Emulations(); got != want {
		t.Errorf("fig15 sweep performed %d emulations, want %d (base/vrp shared across the grid)", got, want)
	}
}

// TestSweepValidation: unknown experiments and malformed grids are
// rejected up front.
func TestSweepValidation(t *testing.T) {
	s := NewSuite(true)
	if _, err := s.Sweep(testCtx, "fig99", sweepGrid); err == nil {
		t.Error("sweep accepted an unknown experiment")
	}
	for name, grid := range map[string][]float64{
		"empty":     {},
		"zero":      {50, 0},
		"negative":  {50, -10},
		"duplicate": {110, 50, 110},
	} {
		if _, err := s.Sweep(testCtx, "fig4", grid); err == nil {
			t.Errorf("sweep accepted %s grid %v", name, grid)
		}
	}
}

// TestSweepJSONRoundTrip: the opgate.sweep/v1 codec is canonical —
// encode(decode(b)) == b, decoded sweeps are Equal to the original, and
// foreign schemas are refused.
func TestSweepJSONRoundTrip(t *testing.T) {
	s := NewSuite(true)
	sw, err := s.Sweep(testCtx, "fig4", []float64{110, 50.5})
	if err != nil {
		t.Fatal(err)
	}
	b, err := EncodeSweep(sw)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeSweep(b)
	if err != nil {
		t.Fatal(err)
	}
	if !sw.Equal(back) {
		t.Error("decoded sweep differs from the original")
	}
	b2, err := EncodeSweep(back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b, b2) {
		t.Error("sweep encoding is not byte-stable under decode/encode")
	}
	if !strings.Contains(string(b), SweepSchema) {
		t.Errorf("encoding does not carry schema %q", SweepSchema)
	}
	if _, err := DecodeSweep([]byte(`{"schema":"opgate.report/v1"}`)); err == nil {
		t.Error("DecodeSweep accepted a foreign schema")
	}
	if diffs := sw.Diff(back); len(diffs) != 0 {
		t.Errorf("self-diff after round trip: %v", diffs)
	}
}

// TestSweepCellAndDiff: cell lookup by threshold, and diffs locating
// disagreements on the threshold axis.
func TestSweepCellAndDiff(t *testing.T) {
	cell := func(v float64) *Report {
		return &Report{ID: "x", Columns: []string{"c"}, Rows: []Row{{Label: "r", Values: []float64{v}}}}
	}
	a := &SweepReport{ID: "x", Thresholds: []float64{110, 50}, Cells: []*Report{cell(1), cell(2)}}
	b := &SweepReport{ID: "x", Thresholds: []float64{110, 30}, Cells: []*Report{cell(9), cell(3)}}
	if r, ok := a.Cell(50); !ok || r.Rows[0].Values[0] != 2 {
		t.Fatalf("Cell(50) = %+v, %t", r, ok)
	}
	if _, ok := a.Cell(70); ok {
		t.Fatal("Cell(70) found a cell not in the grid")
	}
	ds := a.Diff(b)
	// Expected: 110 differs (1 vs 9), 50 only in a, 30 only in b.
	if len(ds) != 3 {
		t.Fatalf("diff = %+v, want 3 entries", ds)
	}
	if ds[0].Threshold != 110 || ds[0].A != 1 || ds[0].B != 9 || ds[0].OnlyIn != "" {
		t.Errorf("value diff wrong: %+v", ds[0])
	}
	if ds[1].Threshold != 50 || ds[1].OnlyIn != "a" {
		t.Errorf("missing-threshold diff wrong: %+v", ds[1])
	}
	if ds[2].Threshold != 30 || ds[2].OnlyIn != "b" {
		t.Errorf("extra-threshold diff wrong: %+v", ds[2])
	}
	if ds := a.Diff(a); len(ds) != 0 {
		t.Errorf("self-diff: %+v", ds)
	}
}

// TestVariantProgramNameParsing is the variant-name bugfix's table test:
// only canonical "vrs<θ>" spellings resolve — trailing garbage, prefix
// matches, and non-canonical float spellings (which would give an
// existing variant a second label) are unknown-variant errors.
func TestVariantProgramNameParsing(t *testing.T) {
	s := NewSuite(true)
	for _, variant := range []string{"vrs50", "vrs50.5"} {
		if _, err := s.variantBinary("compress", variant); err != nil {
			t.Errorf("canonical variant %q rejected: %v", variant, err)
		}
	}
	for _, variant := range []string{
		"vrs50junk", // trailing garbage: the Sscanf bug resolved this to vrs50
		"vrs",       // no threshold at all
		"vrs050",    // non-canonical spelling of 50
		"vrs5e1",    // scientific spelling of 50
		"vrs 50",    // embedded space
		"vrs0",      // thresholds must be positive
		"vrs-5",
		"vrsNaN",
		"velcro",
	} {
		if _, err := s.variantBinary("compress", variant); err == nil {
			t.Errorf("malformed variant %q resolved to a program", variant)
		}
	}
}

// TestSharedVRSBinaryUnchanged: the vrs<θ> labels of one selection share
// one binary (vrs.Result.Apply), so nothing the evaluation does with one
// label's binary may modify it. On every kernel the paper's thresholds
// select one prefix, so each workload's five labels build one program;
// after a full quick RunAll, read under the race detector in CI, each
// still hashes to the identity it was keyed by.
func TestSharedVRSBinaryUnchanged(t *testing.T) {
	s := NewSuite(true)
	var bins []variantBin
	for _, name := range s.Names() {
		first, err := s.variantBinary(name, vrsVariant(Thresholds[0]))
		if err != nil {
			t.Fatal(err)
		}
		bins = append(bins, first)
		for _, th := range Thresholds[1:] {
			b, err := s.variantBinary(name, vrsVariant(th))
			if err != nil {
				t.Fatal(err)
			}
			if b.p != first.p {
				t.Errorf("%s: %s and %s select alike but build two programs", name, vrsVariant(th), vrsVariant(Thresholds[0]))
			}
		}
	}
	if _, err := s.RunAll(testCtx, 50); err != nil {
		t.Fatal(err)
	}
	for _, b := range bins {
		if id := store.ProgramIdentity(b.p); id != b.key.id {
			t.Errorf("%v: a full run changed the shared binary (identity now %.12s)", b.key, id)
		}
	}
}
