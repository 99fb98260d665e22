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
		"unknown-synthetic": WithSynthetics("syn:nosuchfamily/small/1"),
		"nil-store":         WithStore(nil),
		"nil-backend":       WithStore(NewStore(nil)),
	} {
		if _, err := NewSession(opt); err == nil {
			t.Errorf("%s: NewSession accepted an invalid option", name)
		}
	}
	if _, err := NewSession(WithQuick(true), WithSynthetics("syn:narrow/small/1")); err != nil {
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
	st, err := OpenStore(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewSession(WithSynthetics("trace:orphan"), WithStore(st)); err != nil {
		t.Errorf("trace-then-store rejected: %v", err)
	}
	if _, err := NewSession(WithStore(st), WithSynthetics("trace:orphan")); err != nil {
		t.Errorf("store-then-trace rejected: %v", err)
	}
}

// TestSessionRunValidatesThreshold: a threshold that is not positive
// makes Run and RunAll error instead of silently running a nonsense
// configuration.
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
	infos := Experiments()
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
// WithStore(NewStore(b)) accelerates warm runs exactly like a directory store —
// the second run over the same suite reads cells back instead of
// re-emulating, and the injected backend sees the traffic.
func TestSessionWithBackend(t *testing.T) {
	dir, err := store.OpenDir(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	opts := []Option{WithQuick(true), WithStore(NewStore(dir)), WithSynthetics("syn:narrow/small/1")}
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

// TestSessionReportKeyMatchesStoreDerivation: a session files each
// result under the same address opgated derives directly via
// store.ReportKey — the consistency that lets the service look up work
// a session stored (and vice versa). The address must also be sensitive
// to every keyed dimension.
func TestSessionReportKeyMatchesStoreDerivation(t *testing.T) {
	sess, err := NewSession(WithQuick(true), WithSynthetics("syn:narrow/small/1"))
	if err != nil {
		t.Fatal(err)
	}
	got := sess.cellKey("fig8", 70)
	want := store.ReportKey("fig8", true, 70, []string{"syn:narrow/small/1"}, store.SelfIdentity())
	if got != want {
		t.Fatalf("session cell key = %s, store.ReportKey = %s", got, want)
	}
	base := sess.cellKey("fig8", DefaultThreshold)
	for name, other := range map[string]store.Key{
		"experiment": sess.cellKey("fig9", DefaultThreshold),
		"threshold":  sess.cellKey("fig8", 110),
	} {
		if other == base {
			t.Errorf("report key insensitive to %s", name)
		}
	}
}
