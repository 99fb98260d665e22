package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// ErrInjected marks every failure a FaultFS fabricates, so tests can tell
// injected faults from real ones with errors.Is.
var ErrInjected = errors.New("store: injected fault")

// FaultFS is an FS over the real filesystem that injects the disk-failure
// classes the store's degradation contract must absorb:
//
//   - write failures (the full-disk ENOSPC shape): every Nth Write call
//     errors, optionally after persisting a prefix (a short write);
//   - rename failures: the atomic install step errors, leaving only the
//     staging file behind;
//   - torn renames: the install "succeeds" but the destination holds a
//     truncated object — the crashed-mid-rename / lying-disk shape that
//     only content validation can catch;
//   - remove failures: evictions and corrupt-object drops error;
//   - sync failures: File.Sync and SyncDir error, so durability barriers
//     (not just data writes) are a faultable class;
//   - lost dirents: renames whose parent directory is never SyncDir'd
//     are tracked, and DropUnsyncedRenames simulates the power cut that
//     loses exactly those directory entries.
//
// Faults are configured per-class with an every-Nth cadence (1 = always,
// 0 = never) and may be re-armed or cleared at any time, including while
// a store is live — all methods are safe for concurrent use. Injected
// is the running count of fabricated failures.
type FaultFS struct {
	fs osFS // the real filesystem underneath

	mu          sync.Mutex
	writeEvery  int  // fail every Nth Write call
	shortWrites bool // failing writes persist half the buffer first
	renameEvery int  // fail every Nth Rename
	tornEvery   int  // tear every Nth Rename (succeeds, truncated content)
	removeEvery int  // fail every Nth Remove
	syncEvery   int  // fail every Nth Sync (file) or SyncDir call

	writes, renames, removes, syncs int // per-class call counters
	injected                        int // faults fabricated so far

	// unsynced tracks files installed by Rename whose parent directory
	// has not been SyncDir'd since: the set a power cut may lose.
	unsynced map[string][]string // parent dir → installed paths
}

// NewFaultFS returns a FaultFS with no faults armed: it behaves exactly
// like the real filesystem until a Fail*/Tear* method arms a class.
func NewFaultFS() *FaultFS { return &FaultFS{} }

// FailWrites arms write faults: every Nth Write call fails (1 = every
// write, 0 = disarm). With short set, a failing write persists the first
// half of its buffer before erroring, modeling a partial write.
func (f *FaultFS) FailWrites(every int, short bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.writeEvery, f.shortWrites = every, short
	f.writes = 0
}

// FailRenames arms rename faults: every Nth Rename errors without
// touching the destination (0 = disarm).
func (f *FaultFS) FailRenames(every int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.renameEvery = every
	f.renames = 0
}

// TearRenames arms torn renames: every Nth Rename reports success but
// installs only the first half of the source's bytes (0 = disarm).
func (f *FaultFS) TearRenames(every int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.tornEvery = every
	f.renames = 0
}

// FailRemoves arms remove faults: every Nth Remove errors, leaving the
// file in place (0 = disarm).
func (f *FaultFS) FailRemoves(every int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.removeEvery = every
	f.removes = 0
}

// FailSyncs arms durability-barrier faults: every Nth Sync — a staged
// file's fsync or a directory's SyncDir — errors (0 = disarm). A failed
// SyncDir leaves its directory's renames in the unsynced set, so a
// subsequent DropUnsyncedRenames models the power cut the barrier was
// supposed to survive.
func (f *FaultFS) FailSyncs(every int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.syncEvery = every
	f.syncs = 0
}

// DropUnsyncedRenames simulates a power cut that loses the directory
// entries of every rename not yet covered by a SyncDir on its parent:
// those files are removed from disk. It returns how many were lost.
// Writers that sync their directories (as the store and journal must)
// lose nothing here — that is exactly the property under test.
func (f *FaultFS) DropUnsyncedRenames() int {
	f.mu.Lock()
	pending := f.unsynced
	f.unsynced = nil
	f.mu.Unlock()
	lost := 0
	for _, paths := range pending {
		for _, p := range paths {
			if os.Remove(p) == nil {
				lost++
			}
		}
	}
	return lost
}

// Clear disarms every fault class; the counters of injected faults and
// per-class calls keep their values.
func (f *FaultFS) Clear() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.writeEvery, f.shortWrites = 0, false
	f.renameEvery, f.tornEvery, f.removeEvery, f.syncEvery = 0, 0, 0, 0
}

// Injected returns how many faults have been fabricated so far — the
// probe chaos tests use to assert a scenario actually exercised faults.
func (f *FaultFS) Injected() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.injected
}

// due advances a per-class counter and reports whether this call is the
// Nth that must fault (f.mu held by the caller).
func due(counter *int, every int) bool {
	if every <= 0 {
		return false
	}
	*counter++
	return *counter%every == 0
}

// Pass-throughs: the store's read and setup paths fault only via the
// write/rename/remove classes above — failing ReadFile or Map would just
// be the trivially-handled miss the production code already takes for
// absent objects, so there is nothing extra to prove by injecting it.

func (f *FaultFS) MkdirAll(path string, perm os.FileMode) error { return f.fs.MkdirAll(path, perm) }
func (f *FaultFS) ReadDir(name string) ([]os.DirEntry, error)   { return f.fs.ReadDir(name) }
func (f *FaultFS) ReadFile(name string) ([]byte, error)         { return f.fs.ReadFile(name) }
func (f *FaultFS) Map(name string) ([]byte, func(), error)      { return f.fs.Map(name) }
func (f *FaultFS) Stat(name string) (os.FileInfo, error)        { return f.fs.Stat(name) }
func (f *FaultFS) Chtimes(name string, a, m time.Time) error    { return f.fs.Chtimes(name, a, m) }

func (f *FaultFS) Remove(name string) error {
	f.mu.Lock()
	fault := due(&f.removes, f.removeEvery)
	if fault {
		f.injected++
	}
	f.mu.Unlock()
	if fault {
		return fmt.Errorf("%w: remove %s", ErrInjected, name)
	}
	return f.fs.Remove(name)
}

// noteRename records an installed path as volatile until its parent
// directory is synced.
func (f *FaultFS) noteRename(newpath string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.unsynced == nil {
		f.unsynced = map[string][]string{}
	}
	dir := filepath.Dir(newpath)
	f.unsynced[dir] = append(f.unsynced[dir], newpath)
}

func (f *FaultFS) Rename(oldpath, newpath string) error {
	f.mu.Lock()
	var torn, fail bool
	if f.tornEvery > 0 {
		torn = due(&f.renames, f.tornEvery)
	} else {
		fail = due(&f.renames, f.renameEvery)
	}
	if torn || fail {
		f.injected++
	}
	f.mu.Unlock()
	if !fail {
		defer f.noteRename(newpath)
	}
	switch {
	case fail:
		return fmt.Errorf("%w: rename %s", ErrInjected, oldpath)
	case torn:
		// The worst rename failure mode: success is reported, but the
		// destination holds a truncated object. Install the prefix with
		// the same write-then-rename dance so concurrent readers of the
		// destination still never see a mid-write file.
		data, err := os.ReadFile(oldpath)
		if err != nil {
			return err
		}
		tmp := oldpath + ".torn"
		if err := os.WriteFile(tmp, data[:len(data)/2], 0o644); err != nil {
			return err
		}
		if err := os.Rename(tmp, newpath); err != nil {
			return err
		}
		return os.Remove(oldpath)
	}
	return f.fs.Rename(oldpath, newpath)
}

func (f *FaultFS) CreateTemp(dir, pattern string) (File, error) {
	file, err := f.fs.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &faultFile{f: f, File: file}, nil
}

func (f *FaultFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	file, err := f.fs.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &faultFile{f: f, File: file}, nil
}

// syncDue advances the shared sync counter and reports whether this Sync
// or SyncDir call must fault.
func (f *FaultFS) syncDue() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	fault := due(&f.syncs, f.syncEvery)
	if fault {
		f.injected++
	}
	return fault
}

func (f *FaultFS) SyncDir(name string) error {
	if f.syncDue() {
		// The barrier failed: the directory's renames stay volatile, so a
		// later DropUnsyncedRenames can take them.
		return fmt.Errorf("%w: syncdir %s", ErrInjected, name)
	}
	f.mu.Lock()
	delete(f.unsynced, name)
	f.mu.Unlock()
	return f.fs.SyncDir(name)
}

// faultFile intercepts Write to inject full-disk and short-write faults
// and Sync to inject durability-barrier faults.
type faultFile struct {
	f *FaultFS
	File
}

func (ff *faultFile) Sync() error {
	if ff.f.syncDue() {
		return fmt.Errorf("%w: sync %s", ErrInjected, ff.Name())
	}
	return ff.File.Sync()
}

func (ff *faultFile) Write(p []byte) (int, error) {
	ff.f.mu.Lock()
	fault := due(&ff.f.writes, ff.f.writeEvery)
	short := ff.f.shortWrites
	if fault {
		ff.f.injected++
	}
	ff.f.mu.Unlock()
	if !fault {
		return ff.File.Write(p)
	}
	err := fmt.Errorf("%w: write %s", ErrInjected, ff.Name())
	if !short {
		return 0, err
	}
	n, werr := ff.File.Write(p[:len(p)/2])
	if werr != nil {
		return n, werr
	}
	return n, err
}
