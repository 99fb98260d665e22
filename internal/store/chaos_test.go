package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// chaosStore opens a store over a FaultFS at a fresh root.
func chaosStore(t *testing.T, limit int64) (*Store, *FaultFS) {
	t.Helper()
	ff := NewFaultFS()
	s, err := OpenFS(t.TempDir(), limit, ff)
	if err != nil {
		t.Fatal(err)
	}
	return s, ff
}

// listDir returns the file names under a store subdirectory.
func listDir(t *testing.T, s *Store, sub string) []string {
	t.Helper()
	entries, err := os.ReadDir(filepath.Join(s.Dir().root, sub))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names
}

// TestChaosPutFaultsDegradeToMiss: every write-path fault class makes Put
// fail cleanly (counted, ErrInjected surfaced to the caller who treats it
// as best-effort) without leaving an object or staging litter behind, and
// the store keeps working the moment the fault clears.
func TestChaosPutFaultsDegradeToMiss(t *testing.T) {
	for name, arm := range map[string]func(*FaultFS){
		"write-error": func(ff *FaultFS) { ff.FailWrites(1, false) },
		"short-write": func(ff *FaultFS) { ff.FailWrites(1, true) },
		"rename":      func(ff *FaultFS) { ff.FailRenames(1) },
	} {
		t.Run(name, func(t *testing.T) {
			s, ff := chaosStore(t, 0)
			arm(ff)
			key := deriveKey("chaos", name)
			err := s.Put(key, []byte("payload"))
			if !errors.Is(err, ErrInjected) {
				t.Fatalf("Put under %s fault returned %v, want ErrInjected", name, err)
			}
			if st := s.Stats(); st.PutErrors != 1 || st.Puts != 0 {
				t.Fatalf("stats after faulty put: %+v", st)
			}
			if _, ok := s.Get(key); ok {
				t.Fatal("faulty put left a readable object")
			}
			if names := listDir(t, s, "objects"); len(names) != 0 {
				t.Fatalf("faulty put left objects behind: %v", names)
			}
			if names := listDir(t, s, "tmp"); len(names) != 0 {
				t.Fatalf("faulty put left staging litter: %v", names)
			}
			if ff.Injected() == 0 {
				t.Fatal("scenario injected no faults")
			}
			ff.Clear()
			if err := s.Put(key, []byte("payload")); err != nil {
				t.Fatalf("put after clearing faults: %v", err)
			}
			if data, ok := s.Get(key); !ok || string(data) != "payload" {
				t.Fatal("store did not recover once the fault cleared")
			}
		})
	}
}

// TestChaosTornRenameIsAMiss: a rename that "succeeds" but installs a
// truncated object must never serve that object as a trace — decode
// validation reclassifies it as a miss and drops it, and a clean re-put
// repopulates.
func TestChaosTornRenameIsAMiss(t *testing.T) {
	s, ff := chaosStore(t, 0)
	p := mustMiniProgram()
	id := ProgramIdentity(p)
	tr := capture(t, p)
	key := TraceKey("torn", "base", "train", id)

	ff.TearRenames(1)
	if err := s.PutTrace(key, tr, id); err != nil {
		t.Fatalf("torn rename should report success, got %v", err)
	}
	// The raw object is resident but truncated; ReadTrace must refuse it.
	if _, ok := getTrace(s, key, p, id); ok {
		t.Fatal("torn object decoded as a valid trace")
	}
	if _, err := os.Stat(s.Dir().objectPath(key)); !os.IsNotExist(err) {
		t.Fatal("torn object was not dropped after failing validation")
	}
	ff.Clear()
	if err := s.PutTrace(key, tr, id); err != nil {
		t.Fatal(err)
	}
	if got, ok := getTrace(s, key, p, id); !ok || got.Len() != tr.Len() {
		t.Fatal("clean re-put did not read back")
	}
}

// TestChaosRemoveFaults: undeletable files must not break eviction, the
// corrupt-object drop, or Delete — the store stays functional and the
// unusable object still reads as a miss even though it cannot be removed.
func TestChaosRemoveFaults(t *testing.T) {
	s, ff := chaosStore(t, 0)
	p := mustMiniProgram()
	id := ProgramIdentity(p)
	tr := capture(t, p)
	key := TraceKey("undeletable", "base", "train", id)
	if err := s.PutTrace(key, tr, id); err != nil {
		t.Fatal(err)
	}
	// Corrupt the object in place, then make removes fail: ReadTrace must
	// still be a miss despite the failed drop.
	blob, err := os.ReadFile(s.Dir().objectPath(key))
	if err != nil {
		t.Fatal(err)
	}
	blob[len(blob)-1] ^= 0xFF
	if err := os.WriteFile(s.Dir().objectPath(key), blob, 0o644); err != nil {
		t.Fatal(err)
	}
	ff.FailRemoves(1)
	if _, ok := getTrace(s, key, p, id); ok {
		t.Fatal("corrupt object served as a hit under remove faults")
	}
	if _, err := os.Stat(s.Dir().objectPath(key)); err != nil {
		t.Fatal("remove fault did not actually block the drop")
	}
	ff.Clear()
	if _, ok := getTrace(s, key, p, id); ok {
		t.Fatal("dropped corrupt object still readable")
	}
	if err := s.PutTrace(key, tr, id); err != nil {
		t.Fatal(err)
	}
	if _, ok := getTrace(s, key, p, id); !ok {
		t.Fatal("store did not recover after remove faults cleared")
	}
}

// TestChaosEvictionUnderRemoveFaults: an over-budget store whose removes
// all fail stays over budget without erroring; when removes recover the
// next write sweeps it back under.
func TestChaosEvictionUnderRemoveFaults(t *testing.T) {
	const objSize = 512
	s, ff := chaosStore(t, 2*objSize)
	blob := bytes.Repeat([]byte{0xCD}, objSize)
	ff.FailRemoves(1)
	for i := 0; i < 4; i++ {
		if err := s.Put(deriveKey("evict", fmt.Sprint(i)), blob); err != nil {
			t.Fatalf("put %d under remove faults: %v", i, err)
		}
	}
	if size, err := s.Dir().Size(); err != nil || size < 4*objSize {
		t.Fatalf("remove faults should have pinned every object: size %d err %v", size, err)
	}
	ff.Clear()
	if err := s.Put(deriveKey("evict", "final"), blob); err != nil {
		t.Fatal(err)
	}
	if size, err := s.Dir().Size(); err != nil || size > 2*objSize {
		t.Fatalf("store did not sweep back under budget after faults cleared: size %d err %v", size, err)
	}
	if s.Stats().Evictions == 0 {
		t.Fatal("no evictions recorded by the recovery sweep")
	}
}

// TestChaosIntermittentFaultsNeverCorrupt is the store-level chaos
// property: under intermittent faults of every class at once, concurrent
// puts and gets never observe a partial or foreign object — every read is
// either a miss or the exact bytes some writer put.
func TestChaosIntermittentFaultsNeverCorrupt(t *testing.T) {
	p := mustMiniProgram()
	id := ProgramIdentity(p)
	tr := capture(t, p)
	blob := EncodeTrace(tr, id)

	s, ff := chaosStore(t, int64(6*len(blob)))
	ff.FailWrites(7, true)
	ff.FailRenames(5)
	ff.FailRemoves(3)

	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				key := TraceKey(fmt.Sprintf("w%d", (w+i)%5), "base", "train", id)
				switch i % 3 {
				case 0:
					if err := s.PutTrace(key, tr, id); err != nil && !errors.Is(err, ErrInjected) {
						t.Errorf("put: non-injected error %v", err)
						return
					}
				case 1:
					if got, ok := getTrace(s, key, p, id); ok && got.Len() != tr.Len() {
						t.Errorf("trace read back with %d events, want %d", got.Len(), tr.Len())
						return
					}
				default:
					if data, ok := s.Get(key); ok && !bytes.Equal(data, blob) {
						t.Error("raw read returned a partial or foreign object")
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if ff.Injected() == 0 {
		t.Fatal("chaos run injected no faults")
	}
	// Once the weather clears, the same root serves clean round-trips.
	ff.Clear()
	key := TraceKey("aftermath", "base", "train", id)
	if err := s.PutTrace(key, tr, id); err != nil {
		t.Fatal(err)
	}
	if got, ok := getTrace(s, key, p, id); !ok || got.Len() != tr.Len() {
		t.Fatal("store unusable after faults cleared")
	}
}

// TestChaosDirentLossAfterPut: Put fsyncs the objects directory after the
// atomic rename, so a power cut immediately after a successful Put cannot
// lose the directory entry — the durability half of the store's claim
// that a stored object survives the process.
func TestChaosDirentLossAfterPut(t *testing.T) {
	s, ff := chaosStore(t, 0)
	key := deriveKey("durable", "object")
	if err := s.Put(key, []byte("survives power loss")); err != nil {
		t.Fatal(err)
	}
	if lost := ff.DropUnsyncedRenames(); lost != 0 {
		t.Fatalf("power cut lost %d objects Put should have made durable", lost)
	}
	if data, ok := s.Get(key); !ok || string(data) != "survives power loss" {
		t.Fatal("object gone after simulated power cut")
	}

	// Control: the knob really does model the hazard — a rename with no
	// directory sync afterwards is lost by the same power cut.
	raw := deriveKey("volatile", "object")
	tmp := filepath.Join(s.Dir().root, "tmp", "control")
	if err := os.WriteFile(tmp, []byte("unsynced"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := ff.Rename(tmp, s.Dir().objectPath(raw)); err != nil {
		t.Fatal(err)
	}
	if lost := ff.DropUnsyncedRenames(); lost != 1 {
		t.Fatalf("control rename without dir sync survived the power cut (lost %d)", lost)
	}
	if _, ok := s.Get(raw); ok {
		t.Fatal("unsynced control object still readable after the power cut")
	}
}

// TestChaosSyncFaults: failed durability barriers degrade exactly like
// other put failures — counted, surfaced to the best-effort caller, never
// corrupting — and the already-installed object of a failed directory
// sync remains valid and readable (only its crash durability is in doubt).
func TestChaosSyncFaults(t *testing.T) {
	s, ff := chaosStore(t, 0)
	key := deriveKey("sync", "file")

	// File-sync failure: staged write aborts cleanly, no object, no litter.
	ff.FailSyncs(1)
	if err := s.Put(key, []byte("payload")); !errors.Is(err, ErrInjected) {
		t.Fatalf("Put under file-sync fault returned %v, want ErrInjected", err)
	}
	if _, ok := s.Get(key); ok {
		t.Fatal("failed file sync left a readable object")
	}
	if names := listDir(t, s, "tmp"); len(names) != 0 {
		t.Fatalf("failed file sync left staging litter: %v", names)
	}

	// Directory-sync failure: the second Sync call in a Put is the SyncDir;
	// fault only that one. The object is installed and valid — the error
	// reports degraded durability, not a bad write.
	ff.Clear()
	ff.FailSyncs(2)
	err := s.Put(key, []byte("installed"))
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("Put under dir-sync fault returned %v, want ErrInjected", err)
	}
	if data, ok := s.Get(key); !ok || string(data) != "installed" {
		t.Fatal("dir-sync failure lost a validly installed object")
	}
	if st := s.Stats(); st.PutErrors != 2 {
		t.Fatalf("stats after sync faults: %+v", st)
	}
	ff.Clear()
	if err := s.Put(key, []byte("recovered")); err != nil {
		t.Fatalf("put after sync faults cleared: %v", err)
	}
	if data, ok := s.Get(key); !ok || string(data) != "recovered" {
		t.Fatal("store did not recover once sync faults cleared")
	}
}
