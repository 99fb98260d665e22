package opgate

import (
	"bytes"
	"context"
	"testing"

	"opgate/internal/store"
)

// paperGrid is the VRS threshold sweep of the paper's Figures 9/10.
var paperGrid = []float64{110, 90, 70, 50, 30}

// TestSessionSweepMatchesAtThresholdRuns is the PR's acceptance probe:
// Session.Sweep over the paper grid is bit-identical, cell for cell, to
// independent AtThreshold runs — while paying exactly one VRS train
// emulation per workload for the entire grid.
func TestSessionSweepMatchesAtThresholdRuns(t *testing.T) {
	ctx := context.Background()
	swept, err := NewSession(WithQuick(true))
	if err != nil {
		t.Fatal(err)
	}
	plain, err := NewSession(WithQuick(true))
	if err != nil {
		t.Fatal(err)
	}
	sw, err := swept.Sweep(ctx, "fig6", paperGrid...)
	if err != nil {
		t.Fatal(err)
	}
	if len(sw.Cells) != len(paperGrid) {
		t.Fatalf("sweep returned %d cells for %d thresholds", len(sw.Cells), len(paperGrid))
	}
	for i, th := range paperGrid {
		want, err := plain.Run(ctx, "fig6", AtThreshold(th))
		if err != nil {
			t.Fatal(err)
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
			t.Errorf("sweep cell at threshold %g is not byte-identical to AtThreshold(%g)", th, th)
		}
	}
	// One train pass per workload for the whole five-point grid.
	if got := swept.suite.TrainEmulations(); got != 8 {
		t.Errorf("sweep session performed %d train emulations, want 8 (one per workload)", got)
	}
}

// TestSessionSweepStoreReusesCells: with a store attached, sweep cells
// are content-addressed like single-threshold reports — a warm rerun
// computes nothing, and a grown grid recomputes only its missing cells.
func TestSessionSweepStoreReusesCells(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	subgrid := []float64{110, 50}
	// Each session opens the directory afresh, as a new process would.
	storeAt := func() Option {
		st, err := OpenStore(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		return WithStore(st)
	}

	sess1, err := NewSession(WithQuick(true), storeAt())
	if err != nil {
		t.Fatal(err)
	}
	first, err := sess1.Sweep(ctx, "fig4", subgrid...)
	if err != nil {
		t.Fatal(err)
	}

	// Warm rerun in a fresh process stand-in: every cell served from the
	// store, zero emulations of any kind.
	sess2, err := NewSession(WithQuick(true), storeAt())
	if err != nil {
		t.Fatal(err)
	}
	warm, err := sess2.Sweep(ctx, "fig4", subgrid...)
	if err != nil {
		t.Fatal(err)
	}
	if !first.Equal(warm) {
		t.Error("warm sweep differs from the cold one")
	}
	if tr, em := sess2.suite.TrainEmulations(), sess2.Emulations(); tr != 0 || em != 0 {
		t.Errorf("warm sweep emulated: train=%d emu=%d, want 0/0", tr, em)
	}

	// Growing the grid recomputes only the missing cell: two store hits,
	// one miss.
	sess3, err := NewSession(WithQuick(true), storeAt())
	if err != nil {
		t.Fatal(err)
	}
	grown, err := sess3.Sweep(ctx, "fig4", 110, 65, 50)
	if err != nil {
		t.Fatal(err)
	}
	st, ok := sess3.StoreStats()
	if !ok {
		t.Fatal("session lost its store")
	}
	if st.Hits != 2 || st.Misses != 1 {
		t.Errorf("grown grid: hits=%d misses=%d, want 2 hits (cached cells) and 1 miss", st.Hits, st.Misses)
	}
	for _, th := range subgrid {
		cached, ok1 := first.Cell(th)
		regrown, ok2 := grown.Cell(th)
		if !ok1 || !ok2 || !cached.Equal(regrown) {
			t.Errorf("cached cell at %g changed when the grid grew", th)
		}
	}
	if _, ok := grown.Cell(65); !ok {
		t.Error("grown grid is missing its new cell")
	}

	// The cell address IS the single-threshold report address — the
	// identity that lets opgated's warm check serve a sweep-stored cell
	// to a plain AtThreshold job, and vice versa. (The sweep document
	// itself lives under a distinct key domain.)
	key := store.ReportKey("fig4", true, 65, nil, store.SelfIdentity())
	if got := sess3.cellKey("fig4", 65); got != key {
		t.Errorf("sweep cell key %s, single-threshold report key %s", got, key)
	}
	blob, ok := sess3.suite.Store.Get(key)
	if !ok {
		t.Fatal("sweep did not store its fresh cell under the single-threshold report key")
	}
	rs, err := DecodeReports(blob)
	if err != nil || len(rs) != 1 {
		t.Fatalf("stored cell blob is not a single report: %v", err)
	}
	if cell, _ := grown.Cell(65); !rs[0].Equal(cell) {
		t.Error("stored cell differs from the swept one")
	}
}

// TestSessionSweepValidation: session-level sweeps reject what the
// harness rejects, before touching any store.
func TestSessionSweepValidation(t *testing.T) {
	ctx := context.Background()
	sess, err := NewSession(WithQuick(true))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Sweep(ctx, "fig99", 110, 50); err == nil {
		t.Error("Sweep accepted an unknown experiment")
	}
	for name, grid := range map[string][]float64{
		"empty":     {},
		"zero":      {50, 0},
		"duplicate": {110, 110},
	} {
		if _, err := sess.Sweep(ctx, "fig4", grid...); err == nil {
			t.Errorf("Sweep accepted %s grid %v", name, grid)
		}
	}
}

// TestSessionSweepKey: the sweep document address opgated derives for a
// session's configuration is sensitive to every keyed dimension,
// including the grid itself (order matters — the grid is the document's
// axis), and never collides with a cell the session files for the grid.
func TestSessionSweepKey(t *testing.T) {
	sess, err := NewSession(WithQuick(true), WithSynthetics("syn:narrow/small/1"))
	if err != nil {
		t.Fatal(err)
	}
	sweepKey := func(id string, grid ...float64) store.Key {
		return store.SweepKey(id, sess.suite.Quick, grid, sess.suite.Synthetics, store.SelfIdentity())
	}
	base := sweepKey("fig6", 110, 50)
	for name, other := range map[string]store.Key{
		"experiment": sweepKey("fig7", 110, 50),
		"grid":       sweepKey("fig6", 110, 50, 30),
		"order":      sweepKey("fig6", 50, 110),
	} {
		if other == base {
			t.Errorf("sweep key insensitive to %s", name)
		}
	}
	for _, th := range []float64{110, 50} {
		if sess.cellKey("fig6", th) == base {
			t.Errorf("sweep document key collides with its %g cell", th)
		}
	}
	if sweepKey("fig4", 65) == sess.cellKey("fig4", 65) {
		t.Error("one-point sweep document key collides with its single cell")
	}
}

// TestWithSyntheticsDeduplicates is the dedupe bugfix's test: repeating
// a synthetic name — within one option or across several — yields a
// single registration, and the report key matches the deduplicated
// spelling of the same set.
func TestWithSyntheticsDeduplicates(t *testing.T) {
	name := "syn:narrow/small/1"
	dup, err := NewSession(WithQuick(true),
		WithSynthetics(name, name), WithSynthetics(name))
	if err != nil {
		t.Fatal(err)
	}
	if got := dup.suite.Synthetics; len(got) != 1 || got[0] != name {
		t.Fatalf("synthetics after duplicate registration = %v, want [%s]", got, name)
	}
	single, err := NewSession(WithQuick(true), WithSynthetics(name))
	if err != nil {
		t.Fatal(err)
	}
	if dup.cellKey("fig8", DefaultThreshold) != single.cellKey("fig8", DefaultThreshold) {
		t.Error("duplicate registration forked the report key")
	}
	// Order of distinct names is preserved.
	two, err := NewSession(WithQuick(true),
		WithSynthetics("syn:narrow/small/2", name, "syn:narrow/small/2"))
	if err != nil {
		t.Fatal(err)
	}
	if got := two.suite.Synthetics; len(got) != 2 || got[0] != "syn:narrow/small/2" || got[1] != name {
		t.Fatalf("dedupe is not order-preserving: %v", got)
	}
}
