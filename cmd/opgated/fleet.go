package main

import (
	"context"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"opgate/client"
	"opgate/internal/ring"
	"opgate/internal/store"
)

// fleet is one node's view of the sharded opgated ring: the static
// member list hashed onto a consistent-hash ring (every node computes
// the identical ring from the identical -peers list, so ownership needs
// no coordination), plus a connection bundle and health state per peer.
//
// The ring decides placement only. Availability is handled by fallback:
// a submission whose key owns elsewhere is forwarded to the owner, and
// any failure along that path — down, draining, mid-restart, or running
// a different binary (key mismatch) — degrades to computing locally,
// which is always correct because report keys are content addresses.
type fleet struct {
	self  string
	ring  *ring.Ring
	peers map[string]*peer // by base URL; excludes self

	forwards      atomic.Int64 // submissions forwarded to their ring owner
	peerFallbacks atomic.Int64 // forwards that fell back to local compute
}

// peerCooldown is how long a peer marked unhealthy is skipped before a
// forward tries it again; peerProbeTTL bounds how stale a health probe
// the /healthz snapshot will serve without re-probing.
const (
	peerCooldown  = 3 * time.Second
	peerProbeTTL  = 2 * time.Second
	peerProbeWait = 500 * time.Millisecond
)

// peer bundles one remote node's clients and health state.
type peer struct {
	url     string
	objects *client.ObjectBackend // raw object tier (/v1/objects)
	submit  *client.Client        // fail-fast: one attempt, no Retry-After sleeps
	jobs    *client.Client        // wait/report fetches; modest retries

	mu      sync.Mutex
	healthy bool
	lastErr string
	checked time.Time
}

// newFleet builds the node's fleet view. members is the full -peers
// list (every node's URL, identical on every node); self must be one of
// them.
func newFleet(self string, members []string) (*fleet, error) {
	r, err := ring.New(members)
	if err != nil {
		return nil, err
	}
	if !r.Contains(self) {
		return nil, fmt.Errorf("fleet: -self %q is not in the -peers list %v", self, members)
	}
	f := &fleet{self: self, ring: r, peers: map[string]*peer{}}
	for _, m := range members {
		if m == self {
			continue
		}
		objects, err := client.NewObjectBackend(m)
		if err != nil {
			return nil, fmt.Errorf("fleet: peer %q: %w", m, err)
		}
		// Submissions must not sleep out a peer's drain-length Retry-After
		// inside a worker: one refused attempt means "compute locally".
		submit, err := client.New(m, client.WithRetryPolicy(client.RetryPolicy{MaxAttempts: 1}))
		if err != nil {
			return nil, fmt.Errorf("fleet: peer %q: %w", m, err)
		}
		jobs, err := client.New(m, client.WithRetryPolicy(client.RetryPolicy{
			MaxAttempts: 3, BaseDelay: 50 * time.Millisecond, MaxDelay: time.Second,
		}))
		if err != nil {
			return nil, fmt.Errorf("fleet: peer %q: %w", m, err)
		}
		f.peers[m] = &peer{url: m, objects: objects, submit: submit, jobs: jobs, healthy: true}
	}
	return f, nil
}

// owner returns the ring member owning key.
func (f *fleet) owner(key string) string { return f.ring.Owner(key) }

// peerFor returns the peer handle for a member URL (nil for self or an
// unknown member).
func (f *fleet) peerFor(member string) *peer { return f.peers[member] }

// available reports whether a forward should try this peer now: healthy,
// or unhealthy long enough ago that the cooldown has elapsed.
func (p *peer) available() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.healthy || time.Since(p.checked) > peerCooldown
}

func (p *peer) markHealthy() {
	p.mu.Lock()
	p.healthy, p.lastErr, p.checked = true, "", time.Now()
	p.mu.Unlock()
}

func (p *peer) markUnhealthy(err error) {
	p.mu.Lock()
	p.healthy, p.lastErr, p.checked = false, err.Error(), time.Now()
	p.mu.Unlock()
}

// probe refreshes the peer's health from its /readyz within
// peerProbeWait, unless a fresh verdict (peerProbeTTL) already exists.
// Forward traffic refreshes health as a side effect; probe covers idle
// peers so /healthz reports live state.
func (p *peer) probe() {
	p.mu.Lock()
	fresh := time.Since(p.checked) < peerProbeTTL
	p.mu.Unlock()
	if fresh {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), peerProbeWait)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, p.url+"/readyz", nil)
	if err != nil {
		p.markUnhealthy(err)
		return
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		p.markUnhealthy(err)
		return
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		p.markUnhealthy(fmt.Errorf("readyz: HTTP %d", resp.StatusCode))
		return
	}
	p.markHealthy()
}

// healthSnapshot renders the fleet section of /healthz, re-probing stale
// peers in parallel first so the report is current within peerProbeTTL.
func (f *fleet) healthSnapshot() map[string]any {
	var wg sync.WaitGroup
	for _, p := range f.peers {
		wg.Add(1)
		go func(p *peer) { defer wg.Done(); p.probe() }(p)
	}
	wg.Wait()
	peers := make([]map[string]any, 0, len(f.peers))
	for _, m := range f.ring.Members() {
		p := f.peers[m]
		if p == nil {
			continue // self
		}
		p.mu.Lock()
		view := map[string]any{"url": p.url, "healthy": p.healthy}
		if p.lastErr != "" {
			view["lastError"] = p.lastErr
		}
		p.mu.Unlock()
		peers = append(peers, view)
	}
	return map[string]any{
		"self":          f.self,
		"members":       f.ring.Members(),
		"peers":         peers,
		"forwards":      f.forwards.Load(),
		"peerFallbacks": f.peerFallbacks.Load(),
	}
}

// remote returns the fleet's remote store tier: a Backend that routes
// every object to its ring owner's /v1/objects API. Keys this node owns
// are a structural miss/no-op — their home is the local tier — and an
// unavailable owner reads as a miss, per the store contract.
func (f *fleet) remote() store.Backend { return &fleetBackend{f: f} }

type fleetBackend struct {
	f      *fleet
	misses atomic.Int64
}

func (b *fleetBackend) Get(key store.Key) ([]byte, bool) {
	p := b.f.peerFor(b.f.owner(string(key)))
	if p == nil || !p.available() {
		b.misses.Add(1)
		return nil, false
	}
	data, ok := p.objects.Get(key)
	if !ok {
		b.misses.Add(1)
	}
	return data, ok
}

func (b *fleetBackend) Put(key store.Key, data []byte) error {
	p := b.f.peerFor(b.f.owner(string(key)))
	if p == nil {
		return nil // self-owned: the local tier already has it
	}
	if !p.available() {
		return fmt.Errorf("fleet: peer %s unavailable", p.url)
	}
	return p.objects.Put(key, data)
}

func (b *fleetBackend) Delete(key store.Key) {
	if p := b.f.peerFor(b.f.owner(string(key))); p != nil && p.available() {
		p.objects.Delete(key)
	}
}

// Stats aggregates the per-peer object-backend counters (misses include
// routing misses for unavailable or self-owned keys).
func (b *fleetBackend) Stats() store.Stats {
	st := store.Stats{Misses: b.misses.Load()}
	for _, p := range b.f.peers {
		ps := p.objects.Stats()
		st.Hits += ps.Hits
		st.Puts += ps.Puts
		st.PutErrors += ps.PutErrors
	}
	return st
}

// forwardRequest reconstructs the wire request that reproduces job j on
// a peer. A sweep job sends its typed grid; the exact synthetic names
// ride the comma-separated list form ExpandSynthetics round-trips.
// Direct pins the job to the receiver — the guard that turns ring
// disagreement (mismatched -peers configs) into extra local work
// instead of a forwarding cycle.
func forwardRequest(j *job) client.Request {
	return client.Request{
		Experiment: j.experiment,
		Threshold:  j.threshold,
		Thresholds: j.thresholds,
		Synthetic:  strings.Join(j.synthetics, ","),
		Direct:     true,
	}
}

// serveFromPeer tries to satisfy job j from the ring owner: first a raw
// object fetch from the owner's store tier (the report may already
// exist fleet-wide), then a forwarded submission computed on the owner.
// The document is replicated byte-verbatim through ReportBytes — no
// decode/re-encode that could perturb it. Returns false on any failure;
// the caller computes locally (always correct, merely less shared).
func (s *server) serveFromPeer(ctx context.Context, j *job, owner string) bool {
	f := s.cfg.Fleet
	p := f.peerFor(owner)
	if p == nil || !p.available() {
		return false
	}
	if data, ok := p.objects.Get(j.reportKey); ok {
		s.putReport(j.reportKey, data)
		p.markHealthy()
		j.log(fmt.Sprintf("served from peer %s store (%d bytes)", owner, len(data)))
		return true
	}
	f.forwards.Add(1)
	j.log("forwarding to ring owner " + owner)
	remote, err := p.submit.Submit(ctx, forwardRequest(j))
	if err != nil {
		p.markUnhealthy(err)
		return false
	}
	p.markHealthy()
	if remote.ReportKey != string(j.reportKey) {
		// The owner runs a different binary (identity-hashed keys
		// diverge): its document would poison this node's cache under a
		// key it can never verify. Let it compute for its own clients;
		// compute ours locally.
		j.log(fmt.Sprintf("peer %s derives a different report key (version skew); computing locally", owner))
		return false
	}
	final, err := p.jobs.Wait(ctx, remote.ID)
	if err != nil {
		if ctx.Err() != nil {
			// Our job was canceled or timed out: release the peer's worker
			// too, best-effort (the peer coalesces, so an identical live
			// submission keeps it running regardless).
			cctx, cancel := context.WithTimeout(context.Background(), time.Second)
			_, _ = p.jobs.Cancel(cctx, remote.ID)
			cancel()
		} else {
			p.markUnhealthy(err)
		}
		return false
	}
	if final.Status != client.StatusDone {
		j.log(fmt.Sprintf("peer %s job ended %s; computing locally", owner, final.Status))
		return false
	}
	blob, err := p.jobs.ReportBytes(ctx, final.ReportKey)
	if err != nil {
		if ctx.Err() == nil {
			p.markUnhealthy(err)
		}
		return false
	}
	s.putReport(j.reportKey, blob)
	j.log(fmt.Sprintf("served from peer %s (job %s, %d bytes)", owner, remote.ID, len(blob)))
	return true
}
