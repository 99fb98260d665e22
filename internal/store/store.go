package store

import (
	"bytes"
	"fmt"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"opgate/internal/emu"
	"opgate/internal/prog"
)

// ParseSize parses a byte-size budget for -store-limit style flags: a
// plain integer, or an integer with a k/M/G/T binary-unit suffix (an
// optional iB/B tail is accepted, so 2G, 2GiB and 2147483648 agree).
func ParseSize(s string) (int64, error) {
	t := strings.TrimSpace(s)
	lower := strings.ToLower(t)
	shift := 0
	for i, unit := range []string{"k", "m", "g", "t"} {
		for _, tail := range []string{unit + "ib", unit + "b", unit} {
			if strings.HasSuffix(lower, tail) {
				t = t[:len(t)-len(tail)]
				shift = 10 * (i + 1)
				break
			}
		}
		if shift != 0 {
			break
		}
	}
	n, err := strconv.ParseInt(strings.TrimSpace(t), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("store: bad size %q", s)
	}
	if n < 0 || n > (1<<62)>>shift {
		return 0, fmt.Errorf("store: size %q out of range", s)
	}
	return n << shift, nil
}

// Backend is the raw object tier under a Store: a content-addressed
// blob cache keyed by Key. Implementations are an accelerator only and
// must uphold the degradation contract — a fault (disk misbehavior, a
// dead peer, a torn response) reads as a miss, never as an error the
// simulation pipeline has to care about; only Put surfaces errors, and
// callers treat those as best-effort. Implementations must be safe for
// concurrent use.
//
// DirBackend is the local directory tier, Tiered composes a local
// backend in front of a remote one, and the opgate/client package
// provides an HTTP backend speaking opgated's /v1/objects API. The
// trace/report codec helpers layer on top via Store. Get hands out a
// copy the caller owns; the directory tier (and Tiered over it) also
// lends an object in place to Store.ReadTrace as a read-only mapping, so
// a warm trace read holds the mapping and one pooled chunk, no heap blob.
type Backend interface {
	// Get returns the object stored under key; ok is false on a miss
	// (absent, unreadable, or unreachable — faults are misses).
	Get(key Key) ([]byte, bool)
	// Put stores data under key. Errors are surfaced for accounting but
	// callers treat writes as best-effort.
	Put(key Key, data []byte) error
	// Delete removes the object stored under key, if any (best-effort).
	Delete(key Key)
	// Stats returns a snapshot of the backend's traffic counters.
	Stats() Stats
}

// Stats is a point-in-time snapshot of store traffic. The tiered fields
// stay zero for flat backends.
type Stats struct {
	Hits      int64 // Get found the object
	Misses    int64 // Get found nothing usable (absent, corrupt, mismatched)
	Puts      int64 // objects written
	PutErrors int64 // writes that failed (the pipeline continues uncached)
	Evictions int64 // objects removed by the LRU sweep

	// Rejects counts objects a Store's codec helpers found unusable
	// after a raw hit (decode failure, identity mismatch); each one is
	// reclassified hit → miss in this snapshot.
	Rejects int64 `json:",omitempty"`

	// Tiered traffic (Tiered backends only): where hits landed and how
	// the asynchronous remote write-back fared.
	LocalHits       int64 `json:",omitempty"`
	RemoteHits      int64 `json:",omitempty"`
	WriteBacks      int64 `json:",omitempty"`
	WriteBackErrors int64 `json:",omitempty"`
	WriteBackDrops  int64 `json:",omitempty"`
}

// DirBackend is the content-addressed directory tier rooted at a local
// directory. All methods are safe for concurrent use; the root may also
// be shared between processes (writes are atomic renames, so readers
// never see a partial object — the LRU budget is then enforced
// independently by each writer).
type DirBackend struct {
	root  string
	limit int64 // byte budget; <= 0 means unlimited
	fs    FS    // the filesystem underneath (osFS outside of chaos tests)

	mu   sync.Mutex // serializes writes and the eviction sweep
	size int64      // cached resident bytes (tracked only when limit > 0)

	hits, misses, puts, putErrors, evictions atomic.Int64
}

// OpenDir creates (if needed) and opens a directory backend rooted at
// dir with the given byte budget (limit <= 0 disables eviction).
func OpenDir(dir string, limit int64) (*DirBackend, error) {
	return OpenDirFS(dir, limit, osFS{})
}

// OpenDirFS is OpenDir over an explicit filesystem — the chaos-test
// entry point (pair it with a FaultFS to inject disk misbehavior into a
// live store).
func OpenDirFS(dir string, limit int64, fs FS) (*DirBackend, error) {
	for _, sub := range []string{"objects", "tmp"} {
		if err := fs.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("store: open %s: %w", dir, err)
		}
	}
	b := &DirBackend{root: dir, limit: limit, fs: fs}
	b.sweepStaleTemps()
	if limit > 0 {
		// Seed the resident-size tracker so Put only pays a directory
		// sweep when the budget is actually exceeded. Other processes
		// sharing the root can drift this number; the eviction sweep
		// recomputes it exactly.
		b.size, _ = b.Size()
	}
	return b, nil
}

// staleTempAge is how old an orphaned staging file must be before Open
// reclaims it; younger ones may belong to another live process sharing
// the root mid-Put.
const staleTempAge = time.Hour

// sweepStaleTemps reclaims staging files left by crashed writers — they
// live outside objects/, so neither the size tracker nor the LRU sweep
// would ever account for them.
func (b *DirBackend) sweepStaleTemps() {
	dir := filepath.Join(b.root, "tmp")
	entries, err := b.fs.ReadDir(dir)
	if err != nil {
		return
	}
	cutoff := time.Now().Add(-staleTempAge)
	for _, e := range entries {
		if info, err := e.Info(); err == nil && info.ModTime().Before(cutoff) {
			_ = b.fs.Remove(filepath.Join(dir, e.Name()))
		}
	}
}

// Stats returns a snapshot of the traffic counters.
func (b *DirBackend) Stats() Stats {
	return Stats{
		Hits:      b.hits.Load(),
		Misses:    b.misses.Load(),
		Puts:      b.puts.Load(),
		PutErrors: b.putErrors.Load(),
		Evictions: b.evictions.Load(),
	}
}

// objectPath maps a key to its file. Keys are validated hex (ParseKey) or
// derived in-process, so the join cannot escape the objects directory.
func (b *DirBackend) objectPath(key Key) string {
	return filepath.Join(b.root, "objects", string(key))
}

// viewer is a Backend that can lend an object in place instead of
// copying it: view returns the object's bytes and the function that
// releases them, counting the hit or miss as Get would. The bytes may be
// a file mapping, so reads of them run under guardFaults.
type viewer interface {
	view(key Key) (data []byte, release func(), ok bool)
}

// lend returns the object stored under key through b's view when b has
// one, else as a Get copy with nothing to release.
func lend(b Backend, key Key) ([]byte, func(), bool) {
	if v, ok := b.(viewer); ok {
		return v.view(key)
	}
	data, ok := b.Get(key)
	return data, func() {}, ok
}

// view lends the object stored under key as a read-only mapping,
// touching its recency. Objects are installed by rename and never
// rewritten in place, so the mapping keeps the bytes it was opened on
// even if the object is evicted or replaced meanwhile.
func (b *DirBackend) view(key Key) ([]byte, func(), bool) {
	path := b.objectPath(key)
	data, release, err := b.fs.Map(path)
	if !b.lookup(path, err) {
		return nil, nil, false
	}
	return data, release, true
}

// lookup counts a read of the object at path that returned err: a miss,
// or a hit that touches the object's recency. It reports the hit.
func (b *DirBackend) lookup(path string, err error) bool {
	if err != nil {
		b.misses.Add(1)
		return false
	}
	now := time.Now()
	_ = b.fs.Chtimes(path, now, now) // LRU touch; best-effort
	b.hits.Add(1)
	return true
}

// smallObject is the size below which Get reads an object with one plain
// read: there a mapping's mmap, fault and munmap cost more than they save.
const smallObject = 64 << 10

// Get returns a copy of the object stored under key, read directly when
// it is small and taken out of its view otherwise. A missing object is
// (nil, false); read errors count as misses — the store accelerates the
// pipeline and must never fail it.
func (b *DirBackend) Get(key Key) ([]byte, bool) {
	path := b.objectPath(key)
	if info, err := b.fs.Stat(path); err == nil && info.Size() < smallObject {
		data, err := b.fs.ReadFile(path)
		if !b.lookup(path, err) {
			return nil, false
		}
		return data, true
	}
	data, release, ok := b.view(key)
	if !ok {
		return nil, false
	}
	defer release()
	if guardFaults(func() error { data = bytes.Clone(data); return nil }) != nil {
		b.hits.Add(-1) // the object shrank under the copy: a miss after all
		b.misses.Add(1)
		return nil, false
	}
	return data, true
}

// Put stores data under key via a temp file (synced before the atomic
// rename) and fsyncs the objects directory afterwards — rename without a
// parent-directory fsync can lose the entry on power failure, which would
// silently undermine the store's durability claim. The sweep back under
// the byte budget follows.
func (b *DirBackend) Put(key Key, data []byte) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	var replaced int64
	if b.limit > 0 {
		if info, err := b.fs.Stat(b.objectPath(key)); err == nil {
			replaced = info.Size()
		}
	}
	f, err := b.fs.CreateTemp(filepath.Join(b.root, "tmp"), "put-*")
	if err != nil {
		b.putErrors.Add(1)
		return fmt.Errorf("store: put %s: %w", key, err)
	}
	tmp := f.Name()
	_, werr := f.Write(data)
	if werr == nil {
		werr = f.Sync()
	}
	cerr := f.Close()
	if werr == nil {
		werr = cerr
	}
	if werr == nil {
		werr = b.fs.Rename(tmp, b.objectPath(key))
	}
	if werr != nil {
		b.fs.Remove(tmp)
		b.putErrors.Add(1)
		return fmt.Errorf("store: put %s: %w", key, werr)
	}
	if derr := b.fs.SyncDir(filepath.Join(b.root, "objects")); derr != nil {
		// The object is installed and valid — readers can use it now — but
		// its directory entry may not survive a power cut. Surface the
		// degraded durability without undoing a good write.
		b.putErrors.Add(1)
		return fmt.Errorf("store: put %s: sync dir: %w", key, derr)
	}
	b.puts.Add(1)
	if b.limit > 0 {
		b.size += int64(len(data)) - replaced
		if b.size > b.limit {
			b.evictLocked(key)
		}
	}
	return nil
}

// Delete removes the object stored under key, if any.
func (b *DirBackend) Delete(key Key) {
	_ = b.fs.Remove(b.objectPath(key))
}

// Size returns the total bytes resident in the objects directory.
func (b *DirBackend) Size() (int64, error) {
	entries, err := b.fs.ReadDir(filepath.Join(b.root, "objects"))
	if err != nil {
		return 0, err
	}
	var total int64
	for _, e := range entries {
		if info, err := e.Info(); err == nil {
			total += info.Size()
		}
	}
	return total, nil
}

// evictLocked removes least-recently-used objects until the store fits its
// budget again, re-deriving the exact resident size from the directory
// (the running total is only a trigger — it can drift when several
// processes share the root). The object just written (keep) survives the
// sweep even when it alone exceeds the budget: evicting the artifact the
// caller is about to rely on would make the budget self-defeating.
func (b *DirBackend) evictLocked(keep Key) {
	dir := filepath.Join(b.root, "objects")
	entries, err := b.fs.ReadDir(dir)
	if err != nil {
		return
	}
	type obj struct {
		name  string
		size  int64
		mtime time.Time
	}
	var objs []obj
	var total int64
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			continue
		}
		objs = append(objs, obj{e.Name(), info.Size(), info.ModTime()})
		total += info.Size()
	}
	sort.Slice(objs, func(i, j int) bool { return objs[i].mtime.Before(objs[j].mtime) })
	for _, o := range objs {
		if total <= b.limit {
			break
		}
		if o.name == string(keep) {
			continue
		}
		if b.fs.Remove(filepath.Join(dir, o.name)) == nil {
			total -= o.size
			b.evictions.Add(1)
		}
	}
	b.size = total
}

// Store layers the trace/report codec helpers over any Backend: raw
// blobs come straight from the backend; ReadTrace/PutTrace add
// the versioned codec, and any object the codec rejects is dropped and
// reclassified as a miss (the miss-on-any-defect contract holds
// regardless of the tier underneath).
type Store struct {
	Backend
	rejects atomic.Int64
}

// NewStore wraps a Backend with the codec helpers. Sessions and the
// opgated service consume stores, not raw backends, so every tier
// composition — plain directory, HTTP peer, tiered — plugs in here.
func NewStore(b Backend) *Store { return &Store{Backend: b} }

// Open creates (if needed) and opens a directory-backed store rooted at
// dir with the given byte budget (limit <= 0 disables eviction).
func Open(dir string, limit int64) (*Store, error) {
	b, err := OpenDir(dir, limit)
	if err != nil {
		return nil, err
	}
	return NewStore(b), nil
}

// OpenFS is Open over an explicit filesystem — the chaos-test entry point
// (pair it with a FaultFS to inject disk misbehavior into a live store).
func OpenFS(dir string, limit int64, fs FS) (*Store, error) {
	b, err := OpenDirFS(dir, limit, fs)
	if err != nil {
		return nil, err
	}
	return NewStore(b), nil
}

// Dir returns the directory backend underneath, when the store is a
// plain directory store (Open/OpenFS); nil for other backends.
func (s *Store) Dir() *DirBackend {
	b, _ := s.Backend.(*DirBackend)
	return b
}

// Stats returns the backend's counters with the codec rejects folded in:
// a raw hit the codec refused reads as the miss it effectively was.
func (s *Store) Stats() Stats {
	st := s.Backend.Stats()
	r := s.rejects.Load()
	st.Hits -= r
	st.Misses += r
	st.Rejects = r
	return st
}

// batchPool recycles ReadTrace's chunk batch (emu.TraceChunkEvents
// records, ~1.4 MB of columns) across reads.
var batchPool = sync.Pool{New: func() any {
	b := allocRecs(emu.TraceChunkEvents)
	return &b
}}

// ReadTrace streams the packed trace stored under key into sink, chunk by
// chunk through one pooled batch, without building a whole-trace copy.
// A backend with a view (the directory tier, and Tiered on a local hit)
// lends the object as a read-only mapping, so a warm read holds the
// mapping and one pooled chunk and no heap blob; other backends hand over
// a Get copy. Every check — framing, both trailer CRCs, identity, and
// every record against p (emu.RecordValidator) — runs before the first
// batch reaches sink, so a defective object delivers nothing: it is
// dropped, counted as a reject, and ReadTrace returns false for the
// caller to re-emulate. An object truncated in place under its mapping
// faults during those checks and is rejected the same way. Delivery then
// reads the bytes that were validated: store objects are installed by
// rename and never rewritten in place, and an evicted or replaced
// object's mapping keeps its old contents. The sink must not retain a
// batch.
func (s *Store) ReadTrace(key Key, p *prog.Program, identity Hash, sink emu.Sink) bool {
	data, release, ok := lend(s.Backend, key)
	if !ok {
		return false
	}
	defer release()
	buf := batchPool.Get().(*emu.RecBatch)
	defer batchPool.Put(buf)
	var n int
	err := guardFaults(func() error {
		var stored Hash
		var err error
		n, stored, err = frame(data)
		if err == nil {
			err = checkIdentity(stored, identity)
		}
		if err == nil {
			err = eachChunk(data, n, *buf, true, emu.NewRecordValidator(p).Check)
		}
		return err
	})
	if err != nil {
		s.Delete(key)
		s.rejects.Add(1) // reclassify: the object was not usable
		return false
	}
	// Delivery cannot fail: every record has passed the checks above.
	_ = eachChunk(data, n, *buf, false, func(b emu.RecBatch) error {
		sink.ConsumeRecs(b)
		return nil
	})
	return true
}

// PutTrace serializes and stores a trace captured from a binary with the
// given identity.
func (s *Store) PutTrace(key Key, t *emu.Trace, identity Hash) error {
	return s.Put(key, EncodeTrace(t, identity))
}
