package store

import (
	"errors"
	"fmt"
	"sync"
	"testing"
)

// Close drains the write-back queue and stops its goroutine. Put after
// Close panics.
func (t *Tiered) Close() {
	t.Flush()
	close(t.queue)
}

// memBackend is an in-memory Backend test double whose fault behavior is
// scriptable: failGets makes every Get miss, failPuts makes every Put
// error.
type memBackend struct {
	mu       sync.Mutex
	objects  map[Key][]byte
	failGets bool
	failPuts bool

	hits, misses, puts, putErrors atomic_
}

// atomic_ shortens the counter plumbing for the double; it is not the
// production pattern.
type atomic_ struct {
	mu sync.Mutex
	n  int64
}

func (a *atomic_) add() { a.mu.Lock(); a.n++; a.mu.Unlock() }
func (a *atomic_) get() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.n
}

func newMemBackend() *memBackend {
	return &memBackend{objects: make(map[Key][]byte)}
}

func (m *memBackend) Get(key Key) ([]byte, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.failGets {
		m.misses.add()
		return nil, false
	}
	data, ok := m.objects[key]
	if !ok {
		m.misses.add()
		return nil, false
	}
	m.hits.add()
	return append([]byte(nil), data...), true
}

func (m *memBackend) Put(key Key, data []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.failPuts {
		m.putErrors.add()
		return errors.New("memBackend: injected put failure")
	}
	m.objects[key] = append([]byte(nil), data...)
	m.puts.add()
	return nil
}

func (m *memBackend) Delete(key Key) {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.objects, key)
}

func (m *memBackend) Stats() Stats {
	return Stats{
		Hits: m.hits.get(), Misses: m.misses.get(),
		Puts: m.puts.get(), PutErrors: m.putErrors.get(),
	}
}

func (m *memBackend) setFailGets(v bool) { m.mu.Lock(); m.failGets = v; m.mu.Unlock() }
func (m *memBackend) setFailPuts(v bool) { m.mu.Lock(); m.failPuts = v; m.mu.Unlock() }

func (m *memBackend) has(key Key) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	_, ok := m.objects[key]
	return ok
}

// TestTieredReadThroughAndWriteBack: a Put lands locally at once and
// reaches the remote tier asynchronously; a local miss is filled from
// the remote tier so the next read is local.
func TestTieredReadThroughAndWriteBack(t *testing.T) {
	local, remote := newMemBackend(), newMemBackend()
	tr := NewTiered(local, remote)
	defer tr.Close()

	key := deriveKey("tiered", "wb")
	if err := tr.Put(key, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	if !local.has(key) {
		t.Fatal("put did not land in the local tier synchronously")
	}
	tr.Flush()
	if !remote.has(key) {
		t.Fatal("write-back never reached the remote tier")
	}

	// Evict locally; the composed Get must read through and refill.
	local.Delete(key)
	data, ok := tr.Get(key)
	if !ok || string(data) != "payload" {
		t.Fatalf("read-through miss: %q/%v", data, ok)
	}
	if !local.has(key) {
		t.Fatal("remote hit did not fill the local tier")
	}
	if _, ok := tr.Get(key); !ok {
		t.Fatal("refilled object not served locally")
	}

	st := tr.Stats()
	if st.RemoteHits != 1 || st.LocalHits != 1 || st.WriteBacks != 1 {
		t.Fatalf("tiered stats drifted: %+v", st)
	}
	if st.Hits != st.LocalHits+st.RemoteHits {
		t.Fatalf("Hits != LocalHits+RemoteHits: %+v", st)
	}
}

// TestTieredRemoteFaultIsLocalMiss: with the remote tier failing every
// Get and Put, the composed backend behaves exactly like its local tier
// — absent objects are misses (never errors) and writes still succeed
// locally with the failed write-backs merely counted.
func TestTieredRemoteFaultIsLocalMiss(t *testing.T) {
	local, remote := newMemBackend(), newMemBackend()
	remote.setFailGets(true)
	remote.setFailPuts(true)
	tr := NewTiered(local, remote)
	defer tr.Close()

	key := deriveKey("tiered", "fault")
	if _, ok := tr.Get(key); ok {
		t.Fatal("hit out of nowhere")
	}
	if err := tr.Put(key, []byte("v")); err != nil {
		t.Fatalf("local put failed because the remote tier is down: %v", err)
	}
	if data, ok := tr.Get(key); !ok || string(data) != "v" {
		t.Fatal("local round-trip broken by remote faults")
	}
	tr.Flush()
	st := tr.Stats()
	if st.WriteBackErrors != 1 || st.WriteBacks != 0 {
		t.Fatalf("failed write-back not accounted: %+v", st)
	}
	if st.Misses != 1 || st.PutErrors != 0 {
		t.Fatalf("remote faults leaked into the composed contract: %+v", st)
	}

	// Remote recovers: the next write reaches it again.
	remote.setFailPuts(false)
	key2 := deriveKey("tiered", "recovered")
	if err := tr.Put(key2, []byte("v2")); err != nil {
		t.Fatal(err)
	}
	tr.Flush()
	if !remote.has(key2) {
		t.Fatal("write-back did not resume after the remote recovered")
	}
}

// gatedBackend wedges every Put until the gate opens — a remote tier
// that has stopped making progress without erroring.
type gatedBackend struct {
	Backend
	gate chan struct{}
}

func (g *gatedBackend) Put(key Key, data []byte) error {
	<-g.gate
	return g.Backend.Put(key, data)
}

// TestTieredWriteBackOverflowDrops: a saturated write-back queue drops
// writes (counted) instead of blocking Put — the remote tier can never
// apply backpressure to the pipeline.
func TestTieredWriteBackOverflowDrops(t *testing.T) {
	local, remote := newMemBackend(), newMemBackend()
	gated := &gatedBackend{Backend: remote, gate: make(chan struct{})}
	tr := NewTiered(local, gated)

	// The loop wedges on the first write-back it dequeues; writeBackQueue
	// more fit in the queue. Of writeBackQueue+4 puts at least 3 must
	// drop, and none may block.
	const puts = writeBackQueue + 4
	for i := 0; i < puts; i++ {
		if err := tr.Put(deriveKey("ovf", fmt.Sprint(i)), []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	close(gated.gate)
	tr.Close() // drains what was queued
	st := tr.Stats()
	if st.WriteBackDrops < puts-writeBackQueue-1 {
		t.Fatalf("full queue dropped only %d of %d oversubscribed write-backs", st.WriteBackDrops, puts)
	}
	if st.WriteBacks+st.WriteBackDrops != puts {
		t.Fatalf("write-backs (%d) + drops (%d) != %d puts", st.WriteBacks, st.WriteBackDrops, puts)
	}
	if st.Puts != puts || st.PutErrors != 0 {
		t.Fatalf("local writes disturbed by queue pressure: %+v", st)
	}
}

// TestStoreOverTieredBackend: the Store codec helpers compose with a
// Tiered backend — a trace written through the store is served from the
// remote tier after a local eviction, and a corrupt remote object is
// still reclassified as a miss.
func TestStoreOverTieredBackend(t *testing.T) {
	local, remote := newMemBackend(), newMemBackend()
	tiered := NewTiered(local, remote)
	defer tiered.Close()
	s := NewStore(tiered)

	p := mustMiniProgram()
	id := ProgramIdentity(p)
	trc := capture(t, p)
	key := TraceKey("tiered", "base", "train", id)
	if err := s.PutTrace(key, trc, id); err != nil {
		t.Fatal(err)
	}
	tiered.Flush()
	local.Delete(key)
	if got, ok := getTrace(s, key, p, id); !ok || got.Len() != trc.Len() {
		t.Fatal("trace not served through the remote tier")
	}

	// Corrupt the object in both tiers: the codec must reject it, drop it
	// everywhere, and reclassify the raw hit as a miss.
	blob, _ := remote.Get(key)
	blob[len(blob)-1] ^= 0xFF
	_ = local.Put(key, blob)
	_ = remote.Put(key, blob)
	pre := s.Stats()
	if _, ok := getTrace(s, key, p, id); ok {
		t.Fatal("corrupt tiered object served as a trace")
	}
	post := s.Stats()
	if post.Hits != pre.Hits || post.Misses != pre.Misses+1 || post.Rejects != pre.Rejects+1 {
		t.Fatalf("tiered defect not reclassified: pre %+v post %+v", pre, post)
	}
	if local.has(key) || remote.has(key) {
		t.Fatal("corrupt object not dropped from both tiers")
	}
}

// TestTieredViewAccounting: over a directory local tier, ReadTrace takes
// a local hit through the local tier's view and a remote hit as bytes
// that fill the local tier, and the LocalHits/RemoteHits/Misses
// accounting is exactly Get's.
func TestTieredViewAccounting(t *testing.T) {
	p := mustMiniProgram()
	id := ProgramIdentity(p)
	trc := capture(t, p)
	key := TraceKey("tiered", "base", "train", id)

	for _, read := range []struct {
		name string
		get  func(*Store) bool
	}{
		{"Get", func(s *Store) bool { _, ok := s.Get(key); return ok }},
		{"ReadTrace", func(s *Store) bool { _, ok := getTrace(s, key, p, id); return ok }},
	} {
		t.Run(read.name, func(t *testing.T) {
			local, err := OpenDir(t.TempDir(), 0)
			if err != nil {
				t.Fatal(err)
			}
			remote := newMemBackend()
			tiered := NewTiered(local, remote)
			defer tiered.Close()
			s := NewStore(tiered)

			if read.get(s) {
				t.Fatal("hit out of nowhere")
			}
			if err := s.PutTrace(key, trc, id); err != nil {
				t.Fatal(err)
			}
			tiered.Flush()
			local.Delete(key)
			if !read.get(s) {
				t.Fatal("remote object not read through")
			}
			if _, ok := local.Get(key); !ok {
				t.Fatal("remote hit did not fill the local tier")
			}
			if !read.get(s) {
				t.Fatal("refilled object not served locally")
			}
			st := s.Stats()
			if st.LocalHits != 1 || st.RemoteHits != 1 || st.Hits != 2 || st.Misses != 1 || st.Rejects != 0 {
				t.Fatalf("tiered stats drifted: %+v", st)
			}
			if n := remote.hits.get(); n != 1 {
				t.Fatalf("remote tier read %d times, want once (the local hit must not reach it)", n)
			}
		})
	}
}
