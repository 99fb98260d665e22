package opgate

import (
	"context"
	"strings"
	"testing"

	"opgate/internal/store"
)

// TestSessionOptionValidation: bad options fail construction with a
// descriptive error instead of producing a half-configured session.
func TestSessionOptionValidation(t *testing.T) {
	for name, opt := range map[string]Option{
		"negative-workers":  WithWorkers(-1),
		"zero-threshold":    WithThreshold(0),
		"unknown-synthetic": WithSynthetics("syn:nosuchfamily/small/1"),
		"nil-store":         WithStore(nil),
		"nil-backend":       WithBackend(nil),
	} {
		if _, err := NewSession(opt); err == nil {
			t.Errorf("%s: NewSession accepted an invalid option", name)
		}
	}
	if _, err := NewSession(WithQuick(true), WithWorkers(2), WithThreshold(70),
		WithSynthetics("syn:narrow/small/1")); err != nil {
		t.Fatalf("valid options rejected: %v", err)
	}
}

// TestSessionTraceNeedsStore: a "trace:" workload without a store is a
// construction-time error regardless of option order — there would be
// nothing to replay from.
func TestSessionTraceNeedsStore(t *testing.T) {
	if _, err := NewSession(WithSynthetics("trace:orphan")); err == nil ||
		!strings.Contains(err.Error(), "store") {
		t.Errorf("storeless trace session: got %v, want a needs-a-store error", err)
	}
	// With a store the same options construct fine (whether the trace is
	// imported is a lookup-time question, not a construction-time one),
	// in either option order.
	dir := t.TempDir()
	if _, err := NewSession(WithSynthetics("trace:orphan"), WithStoreDir(dir, 0)); err != nil {
		t.Errorf("trace-then-store rejected: %v", err)
	}
	if _, err := NewSession(WithStoreDir(dir, 0), WithSynthetics("trace:orphan")); err != nil {
		t.Errorf("store-then-trace rejected: %v", err)
	}
}

// TestSessionRunValidatesThreshold: AtThreshold is held to the same rule
// as WithThreshold — an invalid per-call override errors instead of
// silently running a nonsense configuration.
func TestSessionRunValidatesThreshold(t *testing.T) {
	sess, err := NewSession(WithQuick(true))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Run(context.Background(), "table1", AtThreshold(-50)); err == nil ||
		!strings.Contains(err.Error(), "threshold") {
		t.Errorf("Run accepted a negative threshold (err=%v)", err)
	}
	if _, err := sess.RunAll(context.Background(), AtThreshold(0)); err == nil {
		t.Error("RunAll accepted a zero threshold")
	}
}

// TestSessionRunAndExperiments: the session front door lists and runs
// experiments (the cheap in-memory ones keep this test fast) with
// descriptor metadata matching the built reports.
func TestSessionRunAndExperiments(t *testing.T) {
	sess, err := NewSession(WithQuick(true))
	if err != nil {
		t.Fatal(err)
	}
	infos := sess.Experiments()
	if len(infos) == 0 || infos[0].ID != "table1" {
		t.Fatalf("experiment listing broken: %+v", infos)
	}
	for _, id := range []string{"table1", "table2"} {
		r, err := sess.Run(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		if r.ID != id || r.Title == "" || r.Unit == "" {
			t.Errorf("%s: incomplete report metadata: %+v", id, r)
		}
	}
	if _, err := sess.Run(context.Background(), "fig99"); err == nil {
		t.Error("Run accepted an unknown experiment")
	}
}

// TestSessionWithBackend: a custom Backend plugged into a session via
// WithBackend accelerates warm runs exactly like a directory store —
// the second run over the same suite reads cells back instead of
// re-emulating, and the injected backend sees the traffic.
func TestSessionWithBackend(t *testing.T) {
	dir, err := store.OpenDir(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	opts := []Option{WithQuick(true), WithBackend(dir), WithSynthetics("syn:narrow/small/1")}
	cold, err := NewSession(opts...)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := cold.Run(context.Background(), "fig8")
	if err != nil {
		t.Fatal(err)
	}
	st, ok := cold.StoreStats()
	if !ok || st.Puts == 0 {
		t.Fatalf("cold session never stored through the backend: %+v (ok=%v)", st, ok)
	}

	warm, err := NewSession(opts...)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := warm.Run(context.Background(), "fig8")
	if err != nil {
		t.Fatal(err)
	}
	st, _ = warm.StoreStats()
	if st.Hits == 0 {
		t.Fatalf("warm session re-emulated everything: %+v", st)
	}
	if len(r1.Rows) != len(r2.Rows) {
		t.Fatalf("backend-accelerated run diverged: %d vs %d rows", len(r1.Rows), len(r2.Rows))
	}
}

// TestSessionReportKeyMatchesStoreDerivation: Session.ReportKey is the
// same address opgated derives directly via store.ReportKey — the
// consistency that lets the service look up work a session stored (and
// vice versa). It must also be sensitive to every keyed dimension.
func TestSessionReportKeyMatchesStoreDerivation(t *testing.T) {
	sess, err := NewSession(WithQuick(true), WithSynthetics("syn:narrow/small/1"))
	if err != nil {
		t.Fatal(err)
	}
	got := sess.ReportKey("fig8", AtThreshold(70))
	want := string(store.ReportKey("fig8", true, 70, []string{"syn:narrow/small/1"}, store.SelfIdentity()))
	if got != want {
		t.Fatalf("Session.ReportKey = %s, store.ReportKey = %s", got, want)
	}
	base := sess.ReportKey("fig8")
	for name, other := range map[string]string{
		"experiment": sess.ReportKey("fig9"),
		"threshold":  sess.ReportKey("fig8", AtThreshold(110)),
	} {
		if other == base {
			t.Errorf("report key insensitive to %s", name)
		}
	}
}
