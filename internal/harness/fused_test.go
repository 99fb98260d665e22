package harness

import (
	"testing"
)

// TestFigureMatricesEmulateOncePerVariant is the emulation-count probe of
// the trace layer's contract: regenerating the Figure 3 and Figure 8
// matrices must functionally emulate each (workload, variant) exactly
// once — the trace capture — with every simulation and every later reuse
// (histograms, repeated calls) served from the cache.
func TestFigureMatricesEmulateOncePerVariant(t *testing.T) {
	s := NewSuite(true)
	if _, err := s.Figure3(testCtx); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Figure8(testCtx); err != nil {
		t.Fatal(err)
	}
	// Variants touched: base, vrp, and the five VRS thresholds.
	variants := int64(2 + len(Thresholds))
	want := int64(len(s.Names())) * variants
	if got := s.Emulations(); got != want {
		t.Errorf("Figure 3+8 matrices performed %d emulations, want %d (one per workload+variant)", got, want)
	}

	// The width histograms of Figure 2 read the cached traces: only the
	// one variant not yet traced (vrp-conv) costs new emulations.
	if _, err := s.Figure2(testCtx); err != nil {
		t.Fatal(err)
	}
	want += int64(len(s.Names()))
	if got := s.Emulations(); got != want {
		t.Errorf("after Figure 2: %d emulations, want %d (only vrp-conv traces added)", got, want)
	}

	// DynWidthHistogram is memoized and trace-backed: repeated calls add
	// no emulations at all.
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
