package client

import (
	"context"
	"io"
	"net/http"
	"sync/atomic"
	"time"

	"opgate/internal/store"
)

// ObjectBackend is a store.Backend over a peer opgated's raw object API
// (GET/PUT/DELETE /v1/objects/{key}) — the remote tier of a fleet
// node's tiered store. It rides the same retry/backoff machinery as the
// job client but with a tighter policy (objectRetryPolicy) and a hard
// per-operation deadline (objectTimeout): the store contract says a slow
// or broken peer must read as a cache miss, never as latency the
// simulation pipeline can feel.
// Every fault class — connection refused, timeout, 5xx, a torn response
// body — degrades to (nil, false) from Get; Put errors are surfaced for
// accounting but callers treat write-back as best-effort.
type ObjectBackend struct {
	c *Client

	hits, misses, puts, putErrors atomic.Int64
}

// objectTimeout bounds each object operation. The deadline covers all
// retry attempts of the operation, not each attempt alone.
const objectTimeout = 2 * time.Second

// objectRetryPolicy is the object backend's backoff shape, snappier than
// the job client's, because a miss is always an acceptable answer.
var objectRetryPolicy = RetryPolicy{
	MaxAttempts: 3,
	BaseDelay:   25 * time.Millisecond,
	MaxDelay:    250 * time.Millisecond,
}

// NewObjectBackend builds an object-tier backend for the opgated peer at
// baseURL.
func NewObjectBackend(baseURL string) (*ObjectBackend, error) {
	c, err := New(baseURL, WithRetryPolicy(objectRetryPolicy))
	if err != nil {
		return nil, err
	}
	return &ObjectBackend{c: c}, nil
}

func (b *ObjectBackend) opCtx() (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), objectTimeout)
}

// Get fetches the object stored under key from the peer. Anything but a
// whole 200 body within the deadline — absent, faulted, torn — is a
// miss.
func (b *ObjectBackend) Get(key store.Key) ([]byte, bool) {
	ctx, cancel := b.opCtx()
	defer cancel()
	resp, err := b.c.do(ctx, http.MethodGet, "/v1/objects/"+string(key), nil, true, retryableStatus)
	if err != nil {
		b.misses.Add(1)
		return nil, false
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		b.misses.Add(1)
		return nil, false
	}
	// Read the whole body and cross-check Content-Length: a connection
	// that died mid-body must not serve a truncated object as a hit.
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || (resp.ContentLength >= 0 && int64(len(data)) != resp.ContentLength) {
		b.misses.Add(1)
		return nil, false
	}
	b.hits.Add(1)
	return data, true
}

// Put stores data under key on the peer. PUT is idempotent — the object
// under a content address is immutable — so transport faults are retried
// within the deadline (a peer restarting mid-PUT sees the replay).
func (b *ObjectBackend) Put(key store.Key, data []byte) error {
	ctx, cancel := b.opCtx()
	defer cancel()
	resp, err := b.c.do(ctx, http.MethodPut, "/v1/objects/"+string(key), data, true, retryableStatus)
	if err != nil {
		b.putErrors.Add(1)
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		b.putErrors.Add(1)
		return responseError(resp)
	}
	io.Copy(io.Discard, resp.Body)
	b.puts.Add(1)
	return nil
}

// Delete removes the object stored under key on the peer (best-effort,
// like every Backend delete).
func (b *ObjectBackend) Delete(key store.Key) {
	ctx, cancel := b.opCtx()
	defer cancel()
	resp, err := b.c.do(ctx, http.MethodDelete, "/v1/objects/"+string(key), nil, true, retryableStatus)
	if err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
}

// Stats returns the backend's traffic counters.
func (b *ObjectBackend) Stats() store.Stats {
	return store.Stats{
		Hits:      b.hits.Load(),
		Misses:    b.misses.Load(),
		Puts:      b.puts.Load(),
		PutErrors: b.putErrors.Load(),
	}
}
