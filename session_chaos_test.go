package opgate

import (
	"bytes"
	"context"
	"testing"

	"opgate/internal/store"
)

// openFaultStore opens a directory store at dir whose disk I/O goes
// through fs.
func openFaultStore(dir string, limit int64, fs store.FS) (*Store, error) {
	b, err := store.OpenDirFS(dir, limit, fs)
	if err != nil {
		return nil, err
	}
	return store.NewStore(b), nil
}

// chaosRun runs one quick-mode experiment on a fresh session bound to st
// (nil = storeless) and returns the session and the canonical report
// encoding — the byte-identity probe used throughout this file.
func chaosRun(t *testing.T, st *Store) (*Session, []byte) {
	t.Helper()
	opts := []Option{WithQuick(true)}
	if st != nil {
		opts = append(opts, WithStore(st))
	}
	sess, err := NewSession(opts...)
	if err != nil {
		t.Fatal(err)
	}
	r, err := sess.Run(context.Background(), "fig2")
	if err != nil {
		t.Fatalf("Run with a faulting store must not surface the fault: %v", err)
	}
	out, err := EncodeReports([]*Report{r})
	if err != nil {
		t.Fatal(err)
	}
	return sess, out
}

// TestSessionChaosStoreFaultsAreInvisible is the degradation contract at
// the public API: whatever the disk does underneath the store — failed or
// torn writes, rename errors, torn renames, failing removes under
// eviction — a Session's reports stay byte-identical to a storeless run,
// served by re-emulation, and Run never returns a store error. After the
// fault clears, a fresh run over the same directory repopulates the store
// and the next run is fully warm.
func TestSessionChaosStoreFaultsAreInvisible(t *testing.T) {
	_, baseline := chaosRun(t, nil)

	classes := map[string]struct {
		arm   func(*store.FaultFS)
		limit int64
	}{
		"write-error":  {arm: func(f *store.FaultFS) { f.FailWrites(1, false) }},
		"short-write":  {arm: func(f *store.FaultFS) { f.FailWrites(1, true) }},
		"rename-error": {arm: func(f *store.FaultFS) { f.FailRenames(1) }},
		"torn-rename":  {arm: func(f *store.FaultFS) { f.TearRenames(1) }},
		// A tiny budget forces eviction sweeps, whose removes then fail.
		"remove-error": {arm: func(f *store.FaultFS) { f.FailRemoves(1) }, limit: 4 << 10},
	}
	for name, tc := range classes {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			ffs := store.NewFaultFS()
			tc.arm(ffs)
			st, err := openFaultStore(dir, tc.limit, ffs)
			if err != nil {
				t.Fatal(err)
			}

			sess, out := chaosRun(t, st)
			if !bytes.Equal(out, baseline) {
				t.Fatal("reports under store faults differ from the storeless baseline")
			}
			if sess.Emulations() == 0 {
				t.Fatal("faulted run did no emulation — probe broken?")
			}
			if ffs.Injected() == 0 {
				t.Fatalf("%s fault never fired", name)
			}

			// The fault clears: a fresh handle over the same (possibly
			// littered) directory repopulates, still byte-identical.
			ffs.Clear()
			repop, err := openFaultStore(dir, tc.limit, ffs)
			if err != nil {
				t.Fatal(err)
			}
			if _, out := chaosRun(t, repop); !bytes.Equal(out, baseline) {
				t.Fatal("post-fault repopulating run differs from baseline")
			}
			// Either the directory was left empty/corrupt (repopulated via
			// puts) or the faulted run's objects survived (served as hits) —
			// a run that did neither means the store is wedged.
			if st := repop.Stats(); st.Puts == 0 && st.Hits == 0 {
				t.Fatalf("fault-free run neither stored nor served anything: %+v", st)
			}

			// And the run after that is fully warm: zero emulations.
			warm, err := openFaultStore(dir, tc.limit, ffs)
			if err != nil {
				t.Fatal(err)
			}
			wsess, out := chaosRun(t, warm)
			if !bytes.Equal(out, baseline) {
				t.Fatal("warm run differs from baseline")
			}
			if tc.limit == 0 {
				if n := wsess.Emulations(); n != 0 {
					t.Fatalf("warm run after recovery performed %d emulations, want 0", n)
				}
			}
		})
	}
}
