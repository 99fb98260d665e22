//go:build unix

package store

import (
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"opgate/internal/emu"
)

// mapHookFS is the real filesystem with a hook that runs on a file just
// after Map has mapped it: the window in which another process could
// shrink the file under its reader.
type mapHookFS struct {
	FS
	afterMap func(name string)
}

func (f mapHookFS) Map(name string) ([]byte, func(), error) {
	data, release, err := f.FS.Map(name)
	if err == nil {
		f.afterMap(name)
	}
	return data, release, err
}

// truncateHalf shrinks a file in place to half its size.
func truncateHalf(t *testing.T) func(string) {
	return func(name string) {
		info, err := os.Stat(name)
		if err == nil {
			err = os.Truncate(name, info.Size()/2)
		}
		if err != nil {
			t.Error(err)
		}
	}
}

// TestGuardFaultsCatchesTruncatedMapping: reading a mapping past the end
// of a file truncated in place raises a memory fault, which guardFaults
// returns as an error; any other panic passes through it.
func TestGuardFaultsCatchesTruncatedMapping(t *testing.T) {
	name := filepath.Join(t.TempDir(), "obj")
	if err := os.WriteFile(name, make([]byte, 4*os.Getpagesize()), 0o644); err != nil {
		t.Fatal(err)
	}
	data, release, err := OSFS().Map(name)
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	if err := os.Truncate(name, 0); err != nil {
		t.Fatal(err)
	}
	err = guardFaults(func() error {
		if data[len(data)-1] != 0 {
			t.Error("a zero file read back nonzero")
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "changed under its mapping") {
		t.Fatalf("read past a truncated mapping returned %v, want a fault error", err)
	}

	defer func() {
		if r := recover(); r != "not a fault" {
			t.Fatalf("guardFaults swallowed or altered a plain panic: %v", r)
		}
	}()
	_ = guardFaults(func() error { panic("not a fault") })
}

// TestDirGetEmptyObject: an empty object, which mmap cannot map, reads
// back as an empty hit.
func TestDirGetEmptyObject(t *testing.T) {
	d, err := OpenDir(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	key := deriveKey("empty", "object")
	if err := d.Put(key, nil); err != nil {
		t.Fatal(err)
	}
	if data, ok := d.Get(key); !ok || len(data) != 0 {
		t.Fatalf("empty object read back as %q, %v", data, ok)
	}
}

// TestChaosTruncatedWhileMappedIsAMiss: an object truncated in place
// after ReadTrace (or Get) has mapped it faults during the checks and
// reads as a dropped, rejected miss — no crash, no batch delivered — and
// a clean re-put reads back.
func TestChaosTruncatedWhileMappedIsAMiss(t *testing.T) {
	p := multiChunkProgram(t)
	id := ProgramIdentity(p)
	tr := capture(t, p)
	key := TraceKey("multi", "base", "train", id)
	hook := &mapHookFS{FS: NewFaultFS(), afterMap: truncateHalf(t)}
	s, err := OpenFS(t.TempDir(), 0, hook)
	if err != nil {
		t.Fatal(err)
	}

	if err := s.PutTrace(key, tr, id); err != nil {
		t.Fatal(err)
	}
	var got recCollector
	if s.ReadTrace(key, p, id, &got) {
		t.Fatal("an object truncated under its mapping streamed")
	}
	if got.batches != 0 {
		t.Errorf("%d batches reached the sink before the reject, want 0", got.batches)
	}
	if _, err := os.Stat(s.Dir().objectPath(key)); !os.IsNotExist(err) {
		t.Error("the truncated object was not dropped")
	}
	if st := s.Stats(); st.Hits != 0 || st.Misses != 1 || st.Rejects != 1 {
		t.Errorf("truncated read not counted as a rejected miss: %+v", st)
	}

	// Get copies out of the same mapping under the same guard.
	if err := s.PutTrace(key, tr, id); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(key); ok {
		t.Fatal("Get served an object truncated under its mapping")
	}

	hook.afterMap = func(string) {}
	if err := s.PutTrace(key, tr, id); err != nil {
		t.Fatal(err)
	}
	if back, ok := getTrace(s, key, p, id); !ok || back.Len() != tr.Len() {
		t.Fatal("clean re-put did not read back")
	}
}

// firstBatchHook is a recCollector that runs a hook when the first batch
// arrives: after every check has passed, with delivery under way.
type firstBatchHook struct {
	recCollector
	hook func()
}

func (h *firstBatchHook) ConsumeRecs(b emu.RecBatch) {
	if h.batches == 0 {
		h.hook()
	}
	h.recCollector.ConsumeRecs(b)
}

// TestChaosEvictedOrReplacedWhileMappedStillDelivers: an object evicted,
// or replaced by a rename over its path, while ReadTrace streams it from
// its mapping still delivers exactly the records that were validated.
func TestChaosEvictedOrReplacedWhileMappedStillDelivers(t *testing.T) {
	p := multiChunkProgram(t)
	id := ProgramIdentity(p)
	tr := capture(t, p)
	var want recCollector
	tr.Records(&want)
	key := TraceKey("multi", "base", "train", id)

	for name, act := range map[string]func(*Store){
		"evicted":  func(s *Store) { s.Delete(key) },
		"replaced": func(s *Store) { _ = s.Put(key, []byte("replacement")) },
	} {
		t.Run(name, func(t *testing.T) {
			s, err := Open(t.TempDir(), 0)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.PutTrace(key, tr, id); err != nil {
				t.Fatal(err)
			}
			got := firstBatchHook{hook: func() { act(s) }}
			if !s.ReadTrace(key, p, id, &got) {
				t.Fatal("sound trace did not stream")
			}
			if got.batches < 3 {
				t.Fatalf("%d batches, want several so some are read after the %s object", got.batches, name)
			}
			if !reflect.DeepEqual(got.recs, want.recs) {
				t.Fatalf("records delivered after the object was %s differ from the validated ones", name)
			}
		})
	}
}

// TestReadTraceAllocatesNoBlob: once the batch pool is warm, a warm read
// of a multi-chunk trace from the directory tier, alone or as Tiered's
// local tier, allocates far less than the object's size — no heap blob
// and no per-read batch.
func TestReadTraceAllocatesNoBlob(t *testing.T) {
	p := multiChunkProgram(t)
	id := ProgramIdentity(p)
	tr := capture(t, p)
	blob := int64(len(EncodeTrace(tr, id)))
	key := TraceKey("multi", "base", "train", id)
	sink := emu.RecFunc(func(emu.RecBatch) {})

	dir, err := OpenDir(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	tiered := NewTiered(dir, newMemBackend(), 8)
	defer tiered.Close()
	for name, s := range map[string]*Store{"dir": NewStore(dir), "tiered": NewStore(tiered)} {
		t.Run(name, func(t *testing.T) {
			if err := s.PutTrace(key, tr, id); err != nil {
				t.Fatal(err)
			}
			tiered.Flush()                      // the write-back's copy must not land in the window
			if !s.ReadTrace(key, p, id, sink) { // warms the pool
				t.Fatal("sound trace did not stream")
			}
			// Enough reads that the race detector's random pool drops (it
			// discards a quarter of Puts) average out far under the bound.
			const reads = 32
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < reads; i++ {
				if !s.ReadTrace(key, p, id, sink) {
					t.Fatal("sound trace did not stream")
				}
			}
			runtime.ReadMemStats(&after)
			per := int64(after.TotalAlloc-before.TotalAlloc) / reads
			t.Logf("a warm read allocates %d bytes for a %d-byte object", per, blob)
			if per >= blob/8 {
				t.Errorf("a warm read allocates %d bytes, want < %d (1/8 of the %d-byte object)", per, blob/8, blob)
			}
		})
	}
}
