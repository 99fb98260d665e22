package harness

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"opgate/internal/emu"
	"opgate/internal/power"
	"opgate/internal/store"
	"opgate/internal/tracework"
	"opgate/internal/vrp"
	"opgate/internal/workload"
)

// exportNative builds a workload at a class, captures its retirement
// trace, and encodes it under the native binary's identity — exactly
// what `ogtrace export` emits.
func exportNative(t *testing.T, name string, class workload.InputClass) []byte {
	t.Helper()
	w, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	p, err := w.Build(class)
	if err != nil {
		t.Fatal(err)
	}
	rec := emu.NewTraceRecorder(p)
	m := emu.New(p)
	m.Sink = rec
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	tr, err := rec.Trace()
	if err != nil {
		t.Fatal(err)
	}
	return store.EncodeTrace(tr, store.ProgramIdentity(p))
}

// TestTraceWorkloadRoundTrip pins the subsystem's core invariant: a
// native workload exported to a trace blob and re-imported under a
// "trace:" name reproduces replay-only experiments byte-identically —
// and the traced run performs zero suite-level emulations, because every
// record it consumes is replayed from the store. Figure 12 is the probe:
// it aggregates the record streams of every suite workload into one row,
// so the native run (kernels + syn twin) and the traced run (kernels +
// trace: twin) must agree bit-for-bit iff the imported trace replays the
// native record stream exactly. The trace workload's base pass carries
// no software overlay: the ablations' configurations need an analysis.
func TestTraceWorkloadRoundTrip(t *testing.T) {
	const twin = "syn:narrow/small/5"
	st := storeSuite(t, t.TempDir())

	// Native pass: kernels + the synthetic twin, traces captured to the
	// store (this also warms the kernels for the traced pass).
	native := NewSuite(true)
	native.Store = st
	native.Synthetics = []string{twin}
	repN, err := native.Figure12(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	outN, err := EncodeReports([]*Report{repN})
	if err != nil {
		t.Fatal(err)
	}

	// Export the twin natively, ingest, register under a trace name.
	lib := tracework.NewLibrary(st)
	ing, err := tracework.Ingest(exportNative(t, twin, workload.Train))
	if err != nil {
		t.Fatal(err)
	}
	name := workload.TraceName("narrowtwin")
	if err := lib.Put(name, workload.Train, ing); err != nil {
		t.Fatal(err)
	}

	// Traced pass: same kernels, the twin now served purely by replay.
	traced := NewSuite(true)
	traced.Store = st
	traced.Synthetics = []string{name}
	repT, err := traced.Figure12(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	outT, err := EncodeReports([]*Report{repT})
	if err != nil {
		t.Fatal(err)
	}

	if !bytes.Equal(outN, outT) {
		t.Errorf("fig12 drifted across the trace round trip:\nnative:\n%s\ntraced:\n%s", outN, outT)
	}
	if n := traced.Emulations(); n != 0 {
		t.Errorf("traced run performed %d emulations, want 0", n)
	}
	// A skeleton cannot be analysed, so the trace workload's base pass
	// carries no overlay, while every kernel's carries the ideal ISA's.
	for _, w := range traced.Names() {
		b, err := traced.variantBinary(w, "base")
		if err != nil {
			t.Fatal(err)
		}
		pass, err := traced.binPass(b, true)
		if err != nil {
			t.Fatal(err)
		}
		want := len(modeGroups[0]) + 1
		if w == name {
			want = len(modeGroups[0])
		}
		if len(pass.rs) != want {
			t.Errorf("%s: base pass times %d results, want %d", w, len(pass.rs), want)
		}
	}
}

// TestTraceWorkloadGates: everything that needs a live emulation refuses
// a trace-backed workload with an error wrapping workload.ErrTraceOnly,
// and lookups of names never imported surface *NotImportedError.
func TestTraceWorkloadGates(t *testing.T) {
	st := storeSuite(t, t.TempDir())
	lib := tracework.NewLibrary(st)
	ing, err := tracework.Ingest(exportNative(t, "syn:narrow/small/5", workload.Train))
	if err != nil {
		t.Fatal(err)
	}
	name := workload.TraceName("gated")
	if err := lib.Put(name, workload.Train, ing); err != nil {
		t.Fatal(err)
	}

	s := NewSuite(true)
	s.Store = st
	s.Synthetics = []string{name}

	// The replay path works.
	if _, err := s.Sim(name, "base", power.GateHWSize); err != nil {
		t.Fatalf("base replay simulation failed: %v", err)
	}
	if _, err := s.DynWidthHistogram(name, "base"); err != nil {
		t.Fatalf("width histogram over replay failed: %v", err)
	}
	if n := s.Emulations(); n != 0 {
		t.Fatalf("replay paths performed %d emulations", n)
	}

	// The live-emulation paths are gated.
	gated := []struct {
		op  string
		err error
	}{
		{"vrp", func() error { _, err := s.VRP(name, vrp.Useful); return err }()},
		{"vrs", func() error { _, err := s.VRS(name, 50); return err }()},
		{"vrp variant", func() error { _, err := s.Sim(name, "vrp", power.GateSoftware); return err }()},
		{"vrs variant", func() error { _, err := s.Sim(name, "vrs50", power.GateSoftware); return err }()},
		{"ablation-opcodes", func() error { _, err := s.RunExperiment(testCtx, "ablation-opcodes", 50); return err }()},
		{"ablation-analysis", func() error { _, err := s.RunExperiment(testCtx, "ablation-analysis", 50); return err }()},
	}
	for _, c := range gated {
		if !errors.Is(c.err, workload.ErrTraceOnly) {
			t.Errorf("%s: got %v, want ErrTraceOnly", c.op, c.err)
		}
	}

	// Never-imported names surface the typed not-imported error.
	var nie *tracework.NotImportedError
	if _, err := s.Baseline(workload.TraceName("ghost")); !errors.As(err, &nie) {
		t.Errorf("ghost lookup: got %v, want *NotImportedError", err)
	}
	// Without a store there is nothing to serve traces from.
	dry := NewSuite(true)
	if _, err := dry.Baseline(name); err == nil {
		t.Error("suite without a store served a trace workload")
	}
}
