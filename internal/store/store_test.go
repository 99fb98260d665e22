package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"sync"
	"testing"
	"time"
)

// TestStoreRoundTrip covers the basic blob contract: miss before Put, hit
// after, overwrite in place, stats accounting.
func TestStoreRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	key := deriveKey("test", "blob")
	if _, ok := s.Get(key); ok {
		t.Fatal("hit on an empty store")
	}
	if err := s.Put(key, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if data, ok := s.Get(key); !ok || string(data) != "v1" {
		t.Fatalf("got %q/%v, want v1 hit", data, ok)
	}
	if err := s.Put(key, []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if data, _ := s.Get(key); string(data) != "v2" {
		t.Fatalf("overwrite not visible: got %q", data)
	}
	st := s.Stats()
	if st.Hits != 2 || st.Misses != 1 || st.Puts != 2 || st.Evictions != 0 {
		t.Fatalf("stats drifted: %+v", st)
	}
}

// TestStoreTraceDefectIsMiss: a damaged on-disk trace must read as a miss
// (and be dropped) rather than fail or mislead the pipeline.
func TestStoreTraceDefectIsMiss(t *testing.T) {
	s, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	p := mustMiniProgram()
	id := ProgramIdentity(p)
	tr := capture(t, p)
	key := TraceKey("mini", "base", "train", id)
	if err := s.PutTrace(key, tr, id); err != nil {
		t.Fatal(err)
	}
	if _, ok := getTrace(s, key, p, id); !ok {
		t.Fatal("fresh trace did not read back")
	}

	// Flip one payload byte in place.
	path := s.Dir().objectPath(key)
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	blob[codecHeaderSize] ^= 0x01
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	pre := s.Stats()
	if _, ok := getTrace(s, key, p, id); ok {
		t.Fatal("corrupted trace read back as a hit")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("corrupted object was not dropped")
	}
	post := s.Stats()
	if post.Hits != pre.Hits || post.Misses != pre.Misses+1 {
		t.Fatalf("defect not reclassified as a miss: pre %+v post %+v", pre, post)
	}
	// And the drop makes room for a clean re-put.
	if err := s.PutTrace(key, tr, id); err != nil {
		t.Fatal(err)
	}
	if got, ok := getTrace(s, key, p, id); !ok || got.Len() != tr.Len() {
		t.Fatal("re-put trace did not read back")
	}
}

// TestStoreEviction: the LRU sweep trims the store to its byte budget,
// oldest recency first, keeping the just-written object and anything
// recently read.
func TestStoreEviction(t *testing.T) {
	const objSize = 1024
	s, err := Open(t.TempDir(), 3*objSize)
	if err != nil {
		t.Fatal(err)
	}
	blob := bytes.Repeat([]byte{0xAB}, objSize)
	keys := make([]Key, 4)
	base := time.Now().Add(-time.Hour)
	for i := range keys {
		keys[i] = deriveKey("evict", fmt.Sprint(i))
		if err := s.Put(keys[i], blob); err != nil {
			t.Fatal(err)
		}
		// Pin distinct, old mtimes so LRU order is deterministic.
		at := base.Add(time.Duration(i) * time.Minute)
		if err := os.Chtimes(s.Dir().objectPath(keys[i]), at, at); err != nil {
			t.Fatal(err)
		}
	}
	// The fourth write already swept the coldest object (keys[0]). Reads
	// refresh recency: touching keys[1] makes keys[2] the victim of the
	// next write.
	if _, ok := s.Get(keys[1]); !ok {
		t.Fatal("expected keys[1] resident")
	}
	newKey := deriveKey("evict", "new")
	if err := s.Put(newKey, blob); err != nil {
		t.Fatal(err)
	}
	if size, err := s.Dir().Size(); err != nil || size > 3*objSize {
		t.Fatalf("store over budget after sweep: %d bytes (err %v)", size, err)
	}
	if _, err := os.Stat(s.Dir().objectPath(newKey)); err != nil {
		t.Fatal("just-written object was evicted")
	}
	if _, err := os.Stat(s.Dir().objectPath(keys[1])); err != nil {
		t.Fatal("recently read object was evicted ahead of colder ones")
	}
	if s.Stats().Evictions == 0 {
		t.Fatal("no evictions recorded despite exceeding the budget")
	}
}

// TestStoreKeptObjectMayExceedBudget: one object larger than the whole
// budget survives its own write (evicting it would make Put useless), but
// everything else goes.
func TestStoreKeptObjectMayExceedBudget(t *testing.T) {
	s, err := Open(t.TempDir(), 100)
	if err != nil {
		t.Fatal(err)
	}
	small := deriveKey("k", "small")
	if err := s.Put(small, make([]byte, 40)); err != nil {
		t.Fatal(err)
	}
	old := time.Now().Add(-time.Hour)
	if err := os.Chtimes(s.Dir().objectPath(small), old, old); err != nil {
		t.Fatal(err)
	}
	big := deriveKey("k", "big")
	if err := s.Put(big, make([]byte, 500)); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(big); !ok {
		t.Fatal("over-budget object did not survive its own write")
	}
	if _, err := os.Stat(s.Dir().objectPath(small)); !os.IsNotExist(err) {
		t.Fatal("older object survived a sweep that needed its bytes")
	}
}

// TestParseSize pins the -store-limit size grammar.
func TestParseSize(t *testing.T) {
	for in, want := range map[string]int64{
		"0":       0,
		"1048576": 1 << 20,
		"512k":    512 << 10,
		"256MiB":  256 << 20,
		"2g":      2 << 30,
		"2GB":     2 << 30,
		" 1T ":    1 << 40,
	} {
		got, err := ParseSize(in)
		if err != nil || got != want {
			t.Errorf("ParseSize(%q) = %d, %v; want %d", in, got, err, want)
		}
	}
	for _, bad := range []string{"", "-1", "banana", "12x", "9999999999999g"} {
		if _, err := ParseSize(bad); err == nil {
			t.Errorf("ParseSize(%q) accepted", bad)
		}
	}
}

// TestStoreConcurrent hammers one store from many goroutines mixing puts,
// gets and trace round-trips over overlapping keys, with a budget small
// enough to keep the eviction sweep running. Run under -race in CI.
func TestStoreConcurrent(t *testing.T) {
	p := mustMiniProgram()
	id := ProgramIdentity(p)
	tr := capture(t, p)
	blob := EncodeTrace(tr, id)

	s, err := Open(t.TempDir(), int64(8*len(blob)))
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				key := TraceKey(fmt.Sprintf("w%d", (w+i)%5), "base", "train", id)
				switch i % 3 {
				case 0:
					if err := s.PutTrace(key, tr, id); err != nil {
						t.Errorf("put: %v", err)
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
	if limit := int64(8 * len(blob)); s.Dir().limit != limit {
		t.Fatalf("limit drifted: %d", s.Dir().limit)
	}
}

// TestStoreConcurrentUnderRemoveRenameFaults is TestStoreConcurrent with
// the eviction and install paths misbehaving: every few Rename and Remove
// calls fail, so sweeps race puts over undeletable files and installs
// abort mid-flight. The contract under fire is unchanged — puts fail only
// with injected errors, gets see whole objects or nothing, and the sweep
// never wedges the store. Run under -race in CI.
func TestStoreConcurrentUnderRemoveRenameFaults(t *testing.T) {
	p := mustMiniProgram()
	id := ProgramIdentity(p)
	tr := capture(t, p)
	blob := EncodeTrace(tr, id)

	ff := NewFaultFS()
	s, err := OpenFS(t.TempDir(), int64(4*len(blob)), ff)
	if err != nil {
		t.Fatal(err)
	}
	ff.FailRenames(4)
	ff.FailRemoves(3)

	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				key := TraceKey(fmt.Sprintf("w%d", (w+i)%6), "base", "train", id)
				switch i % 4 {
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
				case 2:
					s.Delete(key) // races the sweep over failing removes
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
		t.Fatal("fault cadence never fired")
	}
	ff.Clear()
	key := TraceKey("recovery", "base", "train", id)
	if err := s.PutTrace(key, tr, id); err != nil {
		t.Fatal(err)
	}
	if _, ok := getTrace(s, key, p, id); !ok {
		t.Fatal("store unusable after the faulty run")
	}
}

// BenchmarkDirGet reads one object back from the directory tier: a small
// one (2 KB, a report or cell), which Get reads with one plain read, and
// a large one (4 MB, a trace), which it copies out of a mapping.
func BenchmarkDirGet(b *testing.B) {
	for _, leg := range []struct {
		name string
		size int
	}{
		{"small", 2 << 10},
		{"large", 4 << 20},
	} {
		b.Run(leg.name, func(b *testing.B) {
			d, err := OpenDir(b.TempDir(), 0)
			if err != nil {
				b.Fatal(err)
			}
			key := deriveKey("bench", leg.name)
			if err := d.Put(key, bytes.Repeat([]byte{0x5a}, leg.size)); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(leg.size))
			b.ResetTimer()
			for range b.N {
				if data, ok := d.Get(key); !ok || len(data) != leg.size {
					b.Fatalf("Get: %d bytes, %v", len(data), ok)
				}
			}
		})
	}
}
