package client

import (
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"opgate/internal/store"
)

// objectKey derives a syntactically valid store key for tests.
func objectKey(label string) store.Key {
	return store.ReportKey(label, false, 50, nil, store.Hash{})
}

// objectServer is a minimal in-memory /v1/objects peer whose fault
// behavior is scriptable per request — the HTTP counterpart of the
// FaultFS chaos suite.
type objectServer struct {
	mu      sync.Mutex
	objects map[string][]byte

	// intercept, when set, handles the request instead of the store;
	// returning false falls through to normal serving.
	intercept func(w http.ResponseWriter, r *http.Request) bool
}

func newObjectServer() *objectServer {
	return &objectServer{objects: map[string][]byte{}}
}

func (o *objectServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if o.intercept != nil && o.intercept(w, r) {
		return
	}
	key := r.PathValue("key")
	o.mu.Lock()
	defer o.mu.Unlock()
	switch r.Method {
	case http.MethodGet:
		data, ok := o.objects[key]
		if !ok {
			http.Error(w, `{"error":"no object"}`, http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Length", strconv.Itoa(len(data)))
		w.Write(data)
	case http.MethodPut:
		data := make([]byte, 0)
		buf := make([]byte, 4096)
		for {
			n, err := r.Body.Read(buf)
			data = append(data, buf[:n]...)
			if err != nil {
				break
			}
		}
		o.objects[key] = data
		w.WriteHeader(http.StatusNoContent)
	case http.MethodDelete:
		delete(o.objects, key)
		w.WriteHeader(http.StatusNoContent)
	}
}

func (o *objectServer) put(key store.Key, data []byte) {
	o.mu.Lock()
	o.objects[string(key)] = data
	o.mu.Unlock()
}

func (o *objectServer) get(key store.Key) ([]byte, bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	data, ok := o.objects[string(key)]
	return data, ok
}

func newObjectPeer(t *testing.T, o *objectServer) (*httptest.Server, *ObjectBackend) {
	t.Helper()
	mux := http.NewServeMux()
	mux.Handle("/v1/objects/{key}", o)
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	b, err := NewObjectBackend(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	return ts, b
}

// TestObjectBackendRoundTrip: the plain contract over a healthy peer.
func TestObjectBackendRoundTrip(t *testing.T) {
	o := newObjectServer()
	_, b := newObjectPeer(t, o)
	key := objectKey("roundtrip")

	if _, ok := b.Get(key); ok {
		t.Fatal("hit on an empty peer")
	}
	if err := b.Put(key, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	if data, ok := b.Get(key); !ok || string(data) != "payload" {
		t.Fatalf("got %q/%v", data, ok)
	}
	b.Delete(key)
	if _, ok := b.Get(key); ok {
		t.Fatal("deleted object still served")
	}
	st := b.Stats()
	if st.Hits != 1 || st.Misses != 2 || st.Puts != 1 || st.PutErrors != 0 {
		t.Fatalf("stats drifted: %+v", st)
	}
}

// TestObjectBackendPeerDownIsMiss: a connection-refused peer reads as a
// miss, never an error — and Get returns within the operation deadline
// instead of hanging on retries.
func TestObjectBackendPeerDownIsMiss(t *testing.T) {
	// Grab a port that refuses connections: listen, then close.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	url := "http://" + l.Addr().String()
	l.Close()
	b, err := NewObjectBackend(url)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, ok := b.Get(objectKey("down")); ok {
		t.Fatal("hit from a dead peer")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("dead-peer miss took %s", elapsed)
	}
	if err := b.Put(objectKey("down"), []byte("x")); err == nil {
		t.Fatal("put to a dead peer reported success")
	}
	st := b.Stats()
	if st.Misses != 1 || st.PutErrors != 1 {
		t.Fatalf("fault accounting: %+v", st)
	}
}

// TestObjectBackendTimeoutIsMiss: a peer that accepts but never answers
// within the deadline is a miss, bounded by objectTimeout.
func TestObjectBackendTimeoutIsMiss(t *testing.T) {
	o := newObjectServer()
	release := make(chan struct{})
	o.intercept = func(w http.ResponseWriter, r *http.Request) bool {
		select {
		case <-release:
		case <-r.Context().Done():
		}
		return true
	}
	ts := httptest.NewServer(func() http.Handler {
		mux := http.NewServeMux()
		mux.Handle("/v1/objects/{key}", o)
		return mux
	}())
	t.Cleanup(ts.Close)
	t.Cleanup(func() { close(release) })
	b, err := NewObjectBackend(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, ok := b.Get(objectKey("slow")); ok {
		t.Fatal("hit from a hung peer")
	}
	if elapsed := time.Since(start); elapsed > objectTimeout+time.Second {
		t.Fatalf("hung-peer miss took %s, want ~%s", elapsed, objectTimeout)
	}
}

// TestObjectBackend5xxDegradesAndRecovers: server-side 5xx responses are
// retried, then degrade to a miss; the moment the peer recovers the same
// backend serves hits again.
func TestObjectBackend5xxDegradesAndRecovers(t *testing.T) {
	o := newObjectServer()
	var failing atomic.Bool
	o.intercept = func(w http.ResponseWriter, r *http.Request) bool {
		if failing.Load() {
			http.Error(w, `{"error":"injected"}`, http.StatusInternalServerError)
			return true
		}
		return false
	}
	_, b := newObjectPeer(t, o)
	key := objectKey("5xx")
	o.put(key, []byte("stored"))

	failing.Store(true)
	if _, ok := b.Get(key); ok {
		t.Fatal("hit through a 500-ing peer")
	}
	if err := b.Put(key, []byte("new")); err == nil {
		t.Fatal("put through a 500-ing peer reported success")
	}
	failing.Store(false)
	if data, ok := b.Get(key); !ok || string(data) != "stored" {
		t.Fatal("backend did not recover once the peer did")
	}
}

// TestObjectBackendTornResponseIsMiss: a response that dies mid-body —
// Content-Length promised more than arrived — must read as a miss, not
// serve a truncated object as a hit.
func TestObjectBackendTornResponseIsMiss(t *testing.T) {
	o := newObjectServer()
	o.intercept = func(w http.ResponseWriter, r *http.Request) bool {
		if r.Method != http.MethodGet {
			return false
		}
		w.Header().Set("Content-Length", "1000")
		w.WriteHeader(http.StatusOK)
		w.Write([]byte("only a fragment"))
		// Returning without the rest: the connection closes short.
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
		panic(http.ErrAbortHandler) // tear the connection mid-body
	}
	_, b := newObjectPeer(t, o)
	if data, ok := b.Get(objectKey("torn")); ok {
		t.Fatalf("torn response served as a hit: %q", data)
	}
	if st := b.Stats(); st.Hits != 0 || st.Misses == 0 {
		t.Fatalf("torn response accounting: %+v", st)
	}
}

// TestObjectBackendPutRetriesAcrossRestart: a peer that drops the
// connection mid-PUT (restart) is covered by the idempotent retry — the
// replayed PUT lands once the peer is back.
func TestObjectBackendPutRetriesAcrossRestart(t *testing.T) {
	o := newObjectServer()
	var drops atomic.Int64
	drops.Store(2) // tear the first two attempts mid-request
	o.intercept = func(w http.ResponseWriter, r *http.Request) bool {
		if r.Method == http.MethodPut && drops.Add(-1) >= 0 {
			panic(http.ErrAbortHandler)
		}
		return false
	}
	_, b := newObjectPeer(t, o)
	key := objectKey("restart")
	if err := b.Put(key, []byte("survives the restart")); err != nil {
		t.Fatalf("put did not survive the torn attempts: %v", err)
	}
	if data, ok := o.get(key); !ok || string(data) != "survives the restart" {
		t.Fatalf("peer holds %q/%v after the replayed put", data, ok)
	}
	if st := b.Stats(); st.Puts != 1 || st.PutErrors != 0 {
		t.Fatalf("put accounting after retries: %+v", st)
	}
}

// TestObjectBackendAsTieredRemote composes the HTTP backend as a Tiered
// remote tier end to end: write-back replicates to the peer, a local
// eviction reads through it, and killing the peer degrades every read
// to a local miss with zero errors surfaced.
func TestObjectBackendAsTieredRemote(t *testing.T) {
	o := newObjectServer()
	ts, b := newObjectPeer(t, o)
	local, err := store.OpenDir(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	tiered := store.NewTiered(local, b)

	key := objectKey("composed")
	if err := tiered.Put(key, []byte("shared")); err != nil {
		t.Fatal(err)
	}
	tiered.Flush()
	if data, ok := o.get(key); !ok || string(data) != "shared" {
		t.Fatal("write-back never reached the HTTP peer")
	}
	local.Delete(key)
	if data, ok := tiered.Get(key); !ok || string(data) != "shared" {
		t.Fatal("read-through over HTTP failed")
	}

	ts.Close() // the peer dies
	other := objectKey("after-death")
	if _, ok := tiered.Get(other); ok {
		t.Fatal("hit from a dead remote tier")
	}
	if err := tiered.Put(other, []byte("local only")); err != nil {
		t.Fatalf("local put failed because the remote died: %v", err)
	}
	if data, ok := tiered.Get(other); !ok || string(data) != "local only" {
		t.Fatal("local tier broken after remote death")
	}
	tiered.Flush()
	if st := tiered.Stats(); st.WriteBackErrors == 0 {
		t.Fatalf("dead-peer write-back not accounted: %+v", st)
	}
}

// TestObjectBackendConcurrent hammers one backend from many goroutines
// against a healthy peer — the contract (whole objects or misses) under
// the race detector.
func TestObjectBackendConcurrent(t *testing.T) {
	o := newObjectServer()
	_, b := newObjectPeer(t, o)
	blob := []byte("concurrent payload")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				key := objectKey(fmt.Sprintf("k%d", (w+i)%5))
				switch i % 3 {
				case 0:
					if err := b.Put(key, blob); err != nil {
						t.Errorf("put: %v", err)
						return
					}
				case 1:
					if data, ok := b.Get(key); ok && string(data) != string(blob) {
						t.Error("partial or foreign object served")
						return
					}
				default:
					b.Delete(key)
				}
			}
		}(w)
	}
	wg.Wait()
}
