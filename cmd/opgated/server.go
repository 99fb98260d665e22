package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"opgate"
	"opgate/client"
	"opgate/internal/journal"
	"opgate/internal/store"
	"opgate/internal/tracework"
	"opgate/internal/workload"
)

// serverConfig fixes the evaluation envelope for the process: every job
// shares it, so every job can share the memoized sessions underneath.
type serverConfig struct {
	Quick        bool          // evaluate on train inputs
	Workers      int           // worker-pool size (concurrent jobs)
	Queue        int           // queued-job bound; excess POSTs get 503
	Store        *store.Store  // optional persistent trace/report store
	JobTimeout   time.Duration // per-job deadline once running (0 = none)
	DrainTimeout time.Duration // how long Drain waits for running jobs

	// Objects, when set, is served raw over GET/PUT/DELETE /v1/objects —
	// the node's local store tier, which ring peers read and write as
	// their remote tier. Deliberately the *local* tier, never the tiered
	// composition: an object request must terminate here, not fan out to
	// another peer.
	Objects store.Backend

	// Fleet, when set, makes this node one member of a consistent-hash
	// ring: submissions whose report key owns elsewhere are satisfied
	// from (or forwarded to) the owner, falling back to local compute on
	// any peer failure.
	Fleet *fleet

	// Journal, when set, records every job status transition durably; at
	// boot Recovered (the journal's replay) re-adopts the previous
	// process's jobs under their original IDs.
	Journal   *journal.Journal
	Recovered []journal.Record

	// hookJobStart, when set (tests only), runs in the worker goroutine
	// right after a job turns "running", under the job's run context —
	// the injection point for deterministic stalls and panics.
	hookJobStart func(context.Context, *job)
}

// server is the opgated HTTP service: a bounded worker pool draining an
// experiment queue over shared opgate sessions. One session exists per
// distinct synthetic workload set; all of them share the process-wide
// memo semantics of the session's suite (per-key singleflight), so
// concurrent jobs that touch the same binary — through any variant label
// that builds it — coalesce on one emulation, and the persistent store
// extends that coalescing across restarts. Reports are stored in their structured canonical-JSON form
// and rendered at read time (text by default, the stored JSON under
// Accept: application/json).
type server struct {
	cfg serverConfig
	mux *http.ServeMux

	queue chan *job

	// draining flips once, at the start of a graceful shutdown: /readyz
	// turns unready, new submissions bounce with 503 + Retry-After, and
	// workers abort instead of starting queued jobs.
	draining atomic.Bool

	// followers counts live ?follow=1 streams — the probe asserting a
	// disconnected client releases its handler promptly.
	followers atomic.Int64

	// sheds counts submissions refused by admission control (not by a
	// literally full queue).
	sheds atomic.Int64

	// svcTimes is a ring of observed cold-job service times; its mean
	// turns queue depth into the honest Retry-After a shed client gets.
	svcMu    sync.Mutex
	svcTimes []time.Duration
	svcNext  int

	// Serving-path counters (/healthz "serving"): how each answered
	// submission was satisfied. ogload derives its hit rate from these.
	srvCoalesced atomic.Int64 // coalesced onto an identical live job
	srvFromCache atomic.Int64 // report already in memory cache or store
	srvFromPeer  atomic.Int64 // replicated from the ring owner
	srvComputed  atomic.Int64 // computed here, cold

	// retiredEmus carries the emulation counters of evicted sessions, so
	// the /healthz "emulations" total is monotonic across session churn.
	retiredEmus atomic.Int64

	mu           sync.Mutex
	jobs         map[string]*job
	jobOrder     []string                   // creation order, for terminal-job retirement
	pending      map[store.Key]*job         // queued/running jobs by report key
	sessions     map[string]*opgate.Session // one memoized session per synthetic set
	sessionOrder []string                   // creation order, for session eviction
	seq          int

	reportMu    sync.Mutex
	reports     map[store.Key][]byte // in-memory report cache (also persisted)
	reportOrder []store.Key
}

// reportCacheMax bounds the in-memory report cache (FIFO); the persistent
// store, when configured, keeps everything older.
const reportCacheMax = 128

// sessionCacheMax bounds the memoized sessions: synthetic specs are
// client-supplied (a 64-bit seed space), so without a cap a request loop
// over distinct seeds would grow session memos — built programs, record
// profiles, simulation results — without bound. Evicting a session only
// costs recomputation (the persistent store still serves its traces).
const sessionCacheMax = 8

// jobRetainMax bounds the finished-job history; queued and running jobs
// are never retired (the queue bound caps how many of those can exist).
const jobRetainMax = 512

// serviceWindow is how many recent cold-job service times feed the
// Retry-After estimate.
const serviceWindow = 32

// newServer builds the service and starts its worker pool.
func newServer(cfg serverConfig) *server {
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.Queue <= 0 {
		cfg.Queue = 256
	}
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = 30 * time.Second
	}
	s := &server{
		cfg:      cfg,
		mux:      http.NewServeMux(),
		queue:    make(chan *job, cfg.Queue),
		jobs:     map[string]*job{},
		pending:  map[store.Key]*job{},
		sessions: map[string]*opgate.Session{},
		reports:  map[store.Key][]byte{},
	}
	s.mux.HandleFunc("POST /v1/experiments", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/experiments", s.handleList)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /v1/reports/{key}", s.handleReport)
	s.mux.HandleFunc("POST /v1/traces", s.handleTraceUpload)
	s.mux.HandleFunc("GET /v1/traces", s.handleTraceList)
	s.mux.HandleFunc("GET /v1/objects/{key}", s.handleObjectGet)
	s.mux.HandleFunc("PUT /v1/objects/{key}", s.handleObjectPut)
	s.mux.HandleFunc("DELETE /v1/objects/{key}", s.handleObjectDelete)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /readyz", s.handleReady)
	// Re-adopt the previous process's jobs before any worker can race the
	// maps: recovery must see the whole journal state at once.
	s.recoverJournal()
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	return s
}

// shedWatermark is the queue depth, 3/4 of Queue and at least 1, at which
// cold submissions — those whose report is in neither the memory cache nor
// the store, so admitting them buys real emulation work — are shed with
// 503 before the queue is full. Warm and coalesced submissions are never
// shed.
func (s *server) shedWatermark() int { return max(1, s.cfg.Queue*3/4) }

// bindJournal points a job's transition hook at the configured journal:
// every status change appends one durable record carrying the full job
// definition, so a replay can re-adopt the job without any other state.
// The hook runs under j.mu — journal order matches status order per job.
func (s *server) bindJournal(j *job) {
	if s.cfg.Journal == nil {
		return
	}
	j.onEvent = func(status, errmsg string) {
		_, err := s.cfg.Journal.Append(journal.Record{
			Job:        j.id,
			Status:     status,
			Experiment: j.experiment,
			Threshold:  j.threshold,
			Thresholds: j.thresholds,
			Synthetics: j.synthetics,
			ReportKey:  string(j.reportKey),
			Err:        errmsg,
		})
		if err != nil {
			log.Printf("opgated: journal: %v", err)
		}
	}
}

// recoverJournal replays the journal a restarted process inherited:
// terminal jobs become visible history under their original IDs, jobs
// whose report already sits in the store are marked done without
// re-running (a journal tail torn by SIGKILL may have lost the "done"
// record, but the content-addressed report proves completion), and
// everything else is re-enqueued as queued under its original ID — so a
// client's Wait/Follow against the restarted process finds its job
// instead of a 404. Re-execution is harmless: traces and reports are
// content-addressed and coalesced, so finished work is served from the
// store, not redone. Runs before the worker pool starts.
func (s *server) recoverJournal() {
	if len(s.cfg.Recovered) == 0 {
		return
	}
	recs := journal.Reduce(s.cfg.Recovered)
	// Job IDs must keep climbing past everything the journal ever named,
	// or a new submission could collide with a recovered job.
	for _, r := range recs {
		var n int
		if _, err := fmt.Sscanf(r.Job, "job-%06d", &n); err == nil && n > s.seq {
			s.seq = n
		}
	}
	requeued, completed, terminal := 0, 0, 0
	for _, r := range recs {
		key, kerr := store.ParseKey(r.ReportKey)
		if kerr != nil && !client.TerminalStatus(r.Status) {
			// A record whose report key does not parse cannot be re-run
			// safely; CRC framing makes this damage, not skew.
			log.Printf("opgated: journal: skipping unrecoverable job %s: %v", r.Job, kerr)
			continue
		}
		rec := client.Job{
			ID:         r.Job,
			Experiment: r.Experiment,
			Threshold:  r.Threshold,
			Thresholds: r.Thresholds,
			Synthetics: r.Synthetics,
			ReportKey:  string(key),
			Status:     r.Status,
			Error:      r.Err,
			Created:    time.Unix(0, r.Time),
		}
		var j *job
		switch {
		case client.TerminalStatus(r.Status):
			j = s.newJob(rec, "recovered: "+r.Status)
			terminal++
		case func() bool { _, ok := s.getReport(key); return ok }():
			// Never resurrect completed work: the store is the authority.
			j = s.newJob(rec, "recovered: report already in store")
			j.transition(client.StatusDone, "", client.StatusDone)
			completed++
		case !validExperiment(r.Experiment):
			// A definition this build cannot run, such as a sweep an older
			// build journaled with its grid packed into the experiment
			// field: it fails here instead of reaching a worker.
			j = s.newJob(rec, "recovered: unrunnable definition")
			msg := fmt.Sprintf("unknown experiment %q", r.Experiment)
			j.transition(client.StatusFailed, msg, "failed: "+msg)
			terminal++
		default:
			rec.Status = client.StatusQueued
			j = s.newJob(rec, "recovered: re-adopted after restart (was "+r.Status+")")
			select {
			case s.queue <- j:
				s.pending[key] = j
				requeued++
			default:
				j.transition(client.StatusAborted, "queue full at recovery", "aborted: queue full at recovery")
			}
		}
		s.jobs[j.id] = j
		s.jobOrder = append(s.jobOrder, j.id)
		if j.terminal() {
			j.cancel()
		}
	}
	log.Printf("opgated: journal: recovered %d job(s): %d requeued, %d already complete, %d terminal",
		len(recs), requeued, completed, terminal)
}

func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// validExperiment reports whether id names a runnable experiment.
func validExperiment(id string) bool {
	if id == "all" {
		return true
	}
	for _, e := range opgate.Experiments() {
		if e.ID == id {
			return true
		}
	}
	return false
}

func (s *server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		// Graceful shutdown in progress: refuse new work and hint the
		// client to retry against a drained-and-restarted (or peer)
		// process. The hint is the drain window — by then this process
		// is gone either way.
		w.Header().Set("Retry-After", retryAfterSeconds(s.cfg.DrainTimeout))
		httpError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	var req client.Request
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16)).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	sweep := len(req.Thresholds) > 0
	if !validExperiment(req.Experiment) {
		httpError(w, http.StatusBadRequest, "unknown experiment %q (GET /v1/experiments lists them)", req.Experiment)
		return
	}
	if sweep {
		if req.Experiment == "all" {
			httpError(w, http.StatusBadRequest, "a sweep needs a single experiment, not %q", req.Experiment)
			return
		}
		if req.Threshold != 0 {
			httpError(w, http.StatusBadRequest, "threshold and thresholds are exclusive (the grid is the threshold axis)")
			return
		}
		if err := opgate.ValidThresholds(req.Thresholds); err != nil {
			httpError(w, http.StatusBadRequest, "%v", err)
			return
		}
	} else {
		if req.Threshold == 0 {
			req.Threshold = opgate.DefaultThreshold
		}
		if req.Threshold < 0 {
			httpError(w, http.StatusBadRequest, "threshold %g: must be > 0", req.Threshold)
			return
		}
	}
	seed, class := req.Seed, req.Class
	seedClassSet := seed != 0 || class != ""
	if seed == 0 {
		seed = 1
	}
	if class == "" {
		class = "small"
	}
	names, err := opgate.ExpandSynthetics(req.Synthetic, seed, class, seedClassSet)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// Trace-backed names are validated here, at the submission boundary:
	// sessionFor treats session-construction failure as programmer error
	// (panic), and a missing import would otherwise surface only as a job
	// failure. Both are client-fixable conditions, so both answer 400 —
	// the evaluation class is fixed by the server's -quick envelope, so
	// the exact (name, class) pair the job would replay is checked.
	for _, n := range names {
		if !workload.IsTrace(n) {
			continue
		}
		if s.cfg.Store == nil {
			httpError(w, http.StatusBadRequest,
				"workload %q is trace-backed; this server has no store to replay it from", n)
			return
		}
		evalClass := workload.Ref
		if s.cfg.Quick {
			evalClass = workload.Train
		}
		if _, err := tracework.NewLibrary(s.cfg.Store).Lookup(n, evalClass); err != nil {
			httpError(w, http.StatusBadRequest, "%v", err)
			return
		}
	}

	// The report key carries the executable's own hash: a rebuilt server
	// (changed coefficient, new schema) derives fresh addresses, so a
	// shared store can never serve a stale report. Derived here, without
	// a session, so a submission that will be rejected or coalesced never
	// touches the bounded session cache. Sweep jobs address their
	// assembled grid document via SweepKey; Session.Sweep files each
	// per-threshold cell under this same ReportKey derivation, so a grown
	// grid only computes missing cells and a swept cell answers the
	// matching single-threshold job.
	key := store.ReportKey(req.Experiment, s.cfg.Quick, req.Threshold, names, store.SelfIdentity())
	if sweep {
		key = store.SweepKey(req.Experiment, s.cfg.Quick, req.Thresholds, names, store.SelfIdentity())
	}
	s.mu.Lock()
	if j, ok := s.pending[key]; ok && j.ctx.Err() == nil {
		// An identical live request is already queued or running: coalesce
		// onto it instead of doing the work twice. A canceled job still
		// waiting for a worker to retire it does not swallow new work —
		// the fresh job below simply replaces it in the pending map (the
		// old job's cleanup is guarded by identity, not key).
		s.mu.Unlock()
		s.srvCoalesced.Add(1)
		s.respondJob(w, http.StatusOK, j)
		return
	}
	s.mu.Unlock()

	// Admission control. A submission whose report already exists is warm
	// — serving it costs one cache/store read, so it is always admitted.
	// A cold submission buys real emulation work; under load (queue depth
	// at the shed watermark) it is shed first, with a Retry-After derived
	// from observed service times rather than a flat guess.
	if _, warm := s.getReport(key); !warm {
		depth := len(s.queue)
		if depth >= s.shedWatermark() {
			s.sheds.Add(1)
			w.Header().Set("Retry-After", retryAfterSeconds(s.predictWait(depth)))
			httpError(w, http.StatusServiceUnavailable,
				"shedding uncached work under load (%d queued); cached and in-flight requests are still served", depth)
			return
		}
	}

	s.mu.Lock()
	if j, ok := s.pending[key]; ok && j.ctx.Err() == nil {
		// An identical twin registered while the lock was dropped for the
		// warm check: coalesce onto it.
		s.mu.Unlock()
		s.srvCoalesced.Add(1)
		s.respondJob(w, http.StatusOK, j)
		return
	}
	s.seq++
	j := s.newJob(client.Job{
		ID:         fmt.Sprintf("job-%06d", s.seq),
		Experiment: req.Experiment,
		Threshold:  req.Threshold,
		Thresholds: req.Thresholds,
		Synthetics: names,
		ReportKey:  string(key),
		Status:     client.StatusQueued,
		Created:    time.Now(),
	}, client.StatusQueued)
	j.direct = req.Direct
	// Register before enqueueing so a fast worker never races the maps;
	// deregister if the queue turns out to be full.
	s.jobs[j.id] = j
	s.pending[key] = j
	s.mu.Unlock()

	// Journal "queued" before the job can reach a worker, so its first
	// record is always the submission (guarded by j.mu against a racing
	// cancel, whose record must then come second).
	j.journalInitial()

	s.mu.Lock()
	select {
	case s.queue <- j:
	default:
		delete(s.jobs, j.id)
		if s.pending[key] == j {
			delete(s.pending, key)
		}
		s.mu.Unlock()
		j.cancel()
		// The journaled "queued" record needs a terminal successor, or a
		// restart would resurrect this never-enqueued job. The ID stays
		// burned — journaled IDs are never reused.
		j.transition(client.StatusAborted, "queue full", "aborted: queue full")
		// A full queue is transient — workers are draining it right now —
		// but the honest hint is the observed drain rate, not a constant.
		w.Header().Set("Retry-After", retryAfterSeconds(s.predictWait(s.cfg.Queue)))
		httpError(w, http.StatusServiceUnavailable, "job queue full (%d pending)", s.cfg.Queue)
		return
	}
	s.jobOrder = append(s.jobOrder, j.id)
	s.retireJobsLocked()
	s.mu.Unlock()
	s.respondJob(w, http.StatusAccepted, j)
}

// observeService feeds one completed cold-job duration into the ring
// behind Retry-After estimates.
func (s *server) observeService(d time.Duration) {
	s.svcMu.Lock()
	defer s.svcMu.Unlock()
	if len(s.svcTimes) < serviceWindow {
		s.svcTimes = append(s.svcTimes, d)
	} else {
		s.svcTimes[s.svcNext%serviceWindow] = d
	}
	s.svcNext++
}

// meanService is the mean of the observed service-time window (0 when
// nothing has been observed yet).
func (s *server) meanService() time.Duration {
	s.svcMu.Lock()
	defer s.svcMu.Unlock()
	if len(s.svcTimes) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range s.svcTimes {
		sum += d
	}
	return sum / time.Duration(len(s.svcTimes))
}

// predictWait estimates how long a submission arriving behind depth
// queued jobs would wait for a worker: the number of queue "waves" ahead
// of it times the mean observed service time. Before any observation the
// estimate degrades to one second — the old flat hint.
func (s *server) predictWait(depth int) time.Duration {
	mean := s.meanService()
	if mean <= 0 {
		return time.Second
	}
	waves := (depth + s.cfg.Workers) / s.cfg.Workers // ceil((depth+1)/workers)
	return time.Duration(waves) * mean
}

func (s *server) respondJob(w http.ResponseWriter, status int, j *job) {
	w.Header().Set("Location", "/v1/jobs/"+j.id)
	writeJSON(w, status, j.view())
}

func (s *server) handleList(w http.ResponseWriter, _ *http.Request) {
	details := opgate.Experiments()
	ids := make([]string, 0, len(details)+1)
	ids = append(ids, "all")
	for _, e := range details {
		ids = append(ids, e.ID)
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"experiments": ids,
		"details":     details,
	})
}

func (s *server) handleJob(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	j, ok := s.jobs[r.PathValue("id")]
	s.mu.Unlock()
	if !ok {
		httpError(w, http.StatusNotFound, "no such job")
		return
	}
	if r.URL.Query().Get("follow") == "" {
		writeJSON(w, http.StatusOK, j.view())
		return
	}
	// Streamed progress: one NDJSON frame per new progress event, flushed
	// as it happens, until the job reaches a terminal state. The loop is
	// event-driven (the job broadcasts every mutation) and tied to the
	// request context, so a disconnected client releases the handler
	// immediately instead of the stream idling against a dead connection
	// until the job ends.
	s.followers.Add(1)
	defer s.followers.Add(-1)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	sent := 0
	for {
		// Grab the change channel before snapshotting: a mutation landing
		// between the two wakes the next select instead of being missed.
		changed := j.watch()
		v := j.view()
		for ; sent < len(v.Progress); sent++ {
			frame := v
			frame.Progress = v.Progress[sent : sent+1]
			if enc.Encode(frame) != nil {
				return // client went away
			}
		}
		if flusher != nil {
			flusher.Flush()
		}
		if client.TerminalStatus(v.Status) {
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-changed:
		}
	}
}

// handleCancel cancels a queued or running job: its context is cancelled,
// which stops the per-workload fan-out mid-suite; the job reports status
// "canceled". A job still waiting in the queue turns terminal right here
// (its fate is sealed, so followers should not wait for a worker to drain
// it), a running one when its context error surfaces. Cancelling a
// finished job is a no-op.
func (s *server) handleCancel(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	j, ok := s.jobs[r.PathValue("id")]
	s.mu.Unlock()
	if !ok {
		httpError(w, http.StatusNotFound, "no such job")
		return
	}
	j.cancel()
	j.transition(client.StatusCanceled, "", client.StatusCanceled, client.StatusQueued)
	writeJSON(w, http.StatusOK, j.view())
}

// wantsJSON reports whether the request negotiates the structured form.
func wantsJSON(r *http.Request) bool {
	return strings.Contains(r.Header.Get("Accept"), "application/json")
}

func (s *server) handleReport(w http.ResponseWriter, r *http.Request) {
	key, err := store.ParseKey(r.PathValue("key"))
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	data, ok := s.getReport(key)
	if !ok {
		httpError(w, http.StatusNotFound, "no report under that key (yet)")
		return
	}
	if wantsJSON(r) {
		// The stored blob is the canonical structured encoding: serve it
		// verbatim, schema and all.
		w.Header().Set("Content-Type", "application/json")
		w.Write(data)
		return
	}
	reports, err := opgate.DecodeReports(data)
	if err != nil {
		// Sweep jobs store the opgate.sweep/v1 document instead of a
		// report sequence; render its text form.
		if sw, serr := opgate.DecodeSweep(data); serr == nil {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			fmt.Fprint(w, sw.Format())
			return
		}
		// Keys embed the executable identity, so an undecodable blob is
		// damage, not skew; treat it as the miss it is.
		httpError(w, http.StatusNotFound, "stored report is not decodable: %v", err)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_ = opgate.TextRenderer{}.Render(w, reports)
}

// maxObjectBytes caps a PUT /v1/objects body. Packed traces are bounded
// by the emulator's trace budget and report documents are far smaller,
// so the cap only fends off abuse.
const maxObjectBytes = 64 << 20

// maxTraceBytes caps a POST /v1/traces body. Unlike the raw object API,
// an uploaded trace is fully decoded and re-validated before anything is
// stored, so the cap also bounds the ingestion work one request can buy.
const maxTraceBytes = 64 << 20

// handleTraceUpload ingests a codec-framed trace blob and registers it
// as a "trace:" workload in the server's store, after which every node
// sharing that store (directly or via the ring's object tier) can
// evaluate it by name with zero emulations. The body is the raw blob;
// the registry name and input class ride in query parameters. The
// upload is content-addressed and idempotent: re-posting the same blob
// under the same name rewrites identical bytes.
func (s *server) handleTraceUpload(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Store == nil {
		httpError(w, http.StatusServiceUnavailable, "no store configured; imported traces need -store")
		return
	}
	name := r.URL.Query().Get("name")
	if name == "" {
		httpError(w, http.StatusBadRequest, "query parameter \"name\" is required")
		return
	}
	if !workload.IsTrace(name) {
		name = workload.TraceName(name)
	}
	if _, err := workload.ParseTraceName(name); err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	class, err := traceClass(r.URL.Query().Get("class"))
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxTraceBytes))
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			httpError(w, http.StatusRequestEntityTooLarge,
				"trace body exceeds the %d-byte cap", mbe.Limit)
			return
		}
		httpError(w, http.StatusBadRequest, "reading trace body: %v", err)
		return
	}
	ing, err := tracework.Ingest(data)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if err := tracework.NewLibrary(s.cfg.Store).Put(name, class, ing); err != nil {
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]any{
		"name":       name,
		"class":      class.String(),
		"identity":   ing.Identity.String(),
		"events":     ing.Events,
		"static_ins": ing.StaticIns,
	})
}

// handleTraceList returns the store's imported-trace index.
func (s *server) handleTraceList(w http.ResponseWriter, _ *http.Request) {
	if s.cfg.Store == nil {
		writeJSON(w, http.StatusOK, map[string]any{"traces": []any{}})
		return
	}
	entries := tracework.NewLibrary(s.cfg.Store).List()
	writeJSON(w, http.StatusOK, map[string]any{"traces": entries})
}

// traceClass parses the upload API's class parameter ("" = train, the
// profiling class a quick server evaluates on).
func traceClass(s string) (workload.InputClass, error) {
	switch s {
	case "", "train":
		return workload.Train, nil
	case "ref":
		return workload.Ref, nil
	}
	return 0, fmt.Errorf("class %q: want train or ref", s)
}

// The raw object API: the node's local store tier served verbatim, the
// surface ring peers use as their remote tier. GET is a pure
// content-address lookup (404 = miss, by contract indistinguishable
// from any peer fault); PUT is idempotent — objects are immutable under
// their key — so a retried or replayed write is harmless.
func (s *server) handleObjectGet(w http.ResponseWriter, r *http.Request) {
	key, err := store.ParseKey(r.PathValue("key"))
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if s.cfg.Objects == nil {
		httpError(w, http.StatusNotFound, "no object store configured")
		return
	}
	data, ok := s.cfg.Objects.Get(key)
	if !ok {
		httpError(w, http.StatusNotFound, "no object under that key")
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(data)))
	_, _ = w.Write(data)
}

func (s *server) handleObjectPut(w http.ResponseWriter, r *http.Request) {
	key, err := store.ParseKey(r.PathValue("key"))
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if s.cfg.Objects == nil {
		httpError(w, http.StatusServiceUnavailable, "no object store configured")
		return
	}
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxObjectBytes))
	if err != nil {
		httpError(w, http.StatusBadRequest, "reading object body: %v", err)
		return
	}
	if err := s.cfg.Objects.Put(key, data); err != nil {
		httpError(w, http.StatusInternalServerError, "storing object: %v", err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *server) handleObjectDelete(w http.ResponseWriter, r *http.Request) {
	key, err := store.ParseKey(r.PathValue("key"))
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if s.cfg.Objects != nil {
		s.cfg.Objects.Delete(key)
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	jobCounts := map[string]int{}
	for _, j := range s.jobs {
		jobCounts[j.view().Status]++
	}
	s.mu.Unlock()
	emulations := s.emulationsTotal()
	resp := map[string]any{
		"ok":         true,
		"jobs":       jobCounts,
		"draining":   s.draining.Load(),
		"followers":  s.followers.Load(),
		"emulations": emulations,
		"admission": map[string]any{
			"queueDepth":    len(s.queue),
			"queueCapacity": s.cfg.Queue,
			"shedWatermark": s.shedWatermark(),
			"sheds":         s.sheds.Load(),
			"meanServiceMs": s.meanService().Milliseconds(),
		},
		"serving": map[string]any{
			"coalesced": s.srvCoalesced.Load(),
			"fromCache": s.srvFromCache.Load(),
			"fromPeer":  s.srvFromPeer.Load(),
			"computed":  s.srvComputed.Load(),
		},
	}
	if s.cfg.Store != nil {
		resp["store"] = s.cfg.Store.Stats()
	}
	if s.cfg.Journal != nil {
		resp["journal"] = s.cfg.Journal.Stats()
	}
	if s.cfg.Fleet != nil {
		resp["fleet"] = s.cfg.Fleet.healthSnapshot()
	}
	writeJSON(w, http.StatusOK, resp)
}

// emulationsTotal is the process-wide functional-emulation count:
// retired sessions' totals plus every live session's counter — the
// zero-on-warm probe the fleet smoke reads from /healthz.
func (s *server) emulationsTotal() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	total := s.retiredEmus.Load()
	for _, sess := range s.sessions {
		total += sess.Emulations()
	}
	return total
}

// handleReady is the readiness probe: distinct from /healthz (the process
// is alive and can answer) in that it flips to 503 the moment a drain
// begins, so load balancers stop routing new work here while in-flight
// jobs are still being answered.
func (s *server) handleReady(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"ready": false, "draining": true})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"ready": true})
}

// retryAfterSeconds renders a duration as a Retry-After header value
// (whole seconds, rounded up, at least 1).
func retryAfterSeconds(d time.Duration) string {
	secs := int64((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return fmt.Sprint(secs)
}

// drainPoll is the cadence at which Drain re-checks for stragglers.
const drainPoll = 10 * time.Millisecond

// Drain performs the job-level half of a graceful shutdown: flip the
// process unready (readyz 503, new POSTs refused with Retry-After), turn
// everything still queued terminal with status "aborted", then give
// running jobs cfg.DrainTimeout to finish on their own before cancelling
// them and waiting (briefly) for the cancellations to surface. It returns
// whether every job reached a terminal state — the caller's exit code.
// The HTTP listener stays up throughout so followers and pollers read the
// endgame; closing it is the caller's second half (http.Server.Shutdown).
func (s *server) Drain() bool {
	s.draining.Store(true)
	// Drain the queue in place. Workers racing this loop for a queued job
	// also check s.draining and abort rather than run, so every job that
	// was queued when the drain began ends "aborted" no matter who wins.
	aborted := 0
	for {
		select {
		case j := <-s.queue:
			if j.transition(client.StatusAborted, "server draining", "aborted: server draining") {
				aborted++
			}
			continue
		default:
		}
		break
	}
	log.Printf("opgated: drain: aborted %d queued job(s)", aborted)

	deadline := time.Now().Add(s.cfg.DrainTimeout)
	for time.Now().Before(deadline) {
		if s.activeJobs() == 0 {
			log.Printf("opgated: drain: all jobs terminal")
			return true
		}
		time.Sleep(drainPoll)
	}
	// Out of patience: cancel the stragglers and give the cancellation a
	// moment to surface as a terminal status (the suite stops scheduling
	// per-workload work at the next check).
	stragglers := s.cancelActive()
	log.Printf("opgated: drain: timeout after %s, canceled %d running job(s)", s.cfg.DrainTimeout, stragglers)
	grace := time.Now().Add(min(s.cfg.DrainTimeout, 5*time.Second))
	for time.Now().Before(grace) {
		if s.activeJobs() == 0 {
			return true
		}
		time.Sleep(drainPoll)
	}
	log.Printf("opgated: drain: %d job(s) still not terminal", s.activeJobs())
	return false
}

// activeJobs counts jobs not yet in a terminal state.
func (s *server) activeJobs() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, j := range s.jobs {
		if !j.terminal() {
			n++
		}
	}
	return n
}

// cancelActive cancels every non-terminal job's context, returning how
// many it hit.
func (s *server) cancelActive() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, j := range s.jobs {
		if !j.terminal() {
			j.cancel()
			n++
		}
	}
	return n
}

// retireJobsLocked drops the oldest terminal jobs beyond the retention
// bound; active jobs always survive (s.mu held).
func (s *server) retireJobsLocked() {
	for len(s.jobOrder) > jobRetainMax {
		retired := false
		for i, id := range s.jobOrder {
			if j, ok := s.jobs[id]; ok && !j.terminal() {
				continue
			}
			delete(s.jobs, id)
			s.jobOrder = append(s.jobOrder[:i], s.jobOrder[i+1:]...)
			retired = true
			break
		}
		if !retired {
			return // everything old is still active; let it finish
		}
	}
}

// sessionFor returns the shared session for a synthetic workload set,
// creating it on first use. The cache is bounded (sessionCacheMax, oldest
// first): evicting a session only drops memos — with a store attached its
// traces remain one disk read away.
func (s *server) sessionFor(synthetics []string) *opgate.Session {
	key := strings.Join(synthetics, "\x00")
	s.mu.Lock()
	defer s.mu.Unlock()
	sess, ok := s.sessions[key]
	if !ok {
		opts := []opgate.Option{
			opgate.WithQuick(s.cfg.Quick),
			opgate.WithSynthetics(synthetics...),
		}
		if s.cfg.Store != nil {
			opts = append(opts, opgate.WithStore(s.cfg.Store))
		}
		var err error
		sess, err = opgate.NewSession(opts...)
		if err != nil {
			// Synthetic names were validated at submit; a failure here is
			// programmer error, not client input.
			panic(fmt.Sprintf("opgated: session construction: %v", err))
		}
		s.sessions[key] = sess
		s.sessionOrder = append(s.sessionOrder, key)
		for len(s.sessionOrder) > sessionCacheMax {
			// Roll the evicted session's emulation count into the retired
			// total so the /healthz "emulations" figure stays monotonic.
			if old, ok := s.sessions[s.sessionOrder[0]]; ok {
				s.retiredEmus.Add(old.Emulations())
			}
			delete(s.sessions, s.sessionOrder[0])
			s.sessionOrder = s.sessionOrder[1:]
		}
	}
	return sess
}

// worker drains the job queue; the pool size bounds concurrent experiment
// evaluation (each job itself fans out over the session's worker pool).
// runJob recovers its own panics, so one poisoned job can never take a
// worker — or the pool — down with it.
func (s *server) worker() {
	for j := range s.queue {
		s.runJob(j)
	}
}

func (s *server) runJob(j *job) {
	defer func() {
		if p := recover(); p != nil {
			// Isolate the blast radius to this job: record the panic and
			// its stack in the job record, mark it failed, and keep the
			// worker alive for the next job.
			j.failPanic(p, debug.Stack())
			log.Printf("opgated: job %s panicked: %v\n%s", j.id, p, debug.Stack())
		}
		j.cancel() // release the context's resources on every exit path
		s.mu.Lock()
		if s.pending[j.reportKey] == j {
			delete(s.pending, j.reportKey)
		}
		s.mu.Unlock()
	}()
	if s.draining.Load() {
		// The process is shutting down: a job still queued now is never
		// going to run, and its submitter should resubmit elsewhere.
		j.transition(client.StatusAborted, "server draining", "aborted: server draining")
		return
	}
	if err := j.ctx.Err(); err != nil {
		// Cancelled while still queued: never start the work (handleCancel
		// usually already made the job terminal, and then this is a no-op).
		j.finishErr(err)
		return
	}
	if !j.transition(client.StatusRunning, "", client.StatusRunning, client.StatusQueued) {
		return // a DELETE landed after the check above; canceled stays final
	}

	// The job deadline layers on the cancel context: DELETE still cancels
	// instantly, and on expiry the suite stops scheduling work and the
	// job ends with the distinct terminal status "timeout".
	ctx := j.ctx
	if s.cfg.JobTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.JobTimeout)
		defer cancel()
	}
	if hook := s.cfg.hookJobStart; hook != nil {
		hook(ctx, j)
	}
	if err := s.serve(ctx, j); err != nil {
		j.finishErr(err)
		return
	}
	j.transition(client.StatusDone, "", client.StatusDone)
}

// serve makes job j's report available under its key: from the cache or
// store, from the ring owner, or computed here.
func (s *server) serve(ctx context.Context, j *job) error {
	// Warm path: an earlier job (or process, via the store) already
	// built this exact report sequence. With a tiered store this check
	// also reads through to the ring owner's tier.
	if data, ok := s.getReport(j.reportKey); ok {
		s.srvFromCache.Add(1)
		j.log(fmt.Sprintf("served from cache (%d bytes)", len(data)))
		return nil
	}

	// Fleet path: a cold job whose report key owns on another ring
	// member is satisfied there — its store tier first, else a forwarded
	// submission — so N nodes act as one coalescing cache. Any peer
	// failure falls through to local compute, which is always correct.
	if f := s.cfg.Fleet; f != nil && !j.direct {
		if owner := f.owner(string(j.reportKey)); owner != f.self {
			if s.serveFromPeer(ctx, j, owner) {
				s.srvFromPeer.Add(1)
				return nil
			}
			if err := ctx.Err(); err != nil {
				return err
			}
			f.peerFallbacks.Add(1)
			j.log("peer unavailable; computing locally")
		}
	}

	started := time.Now()
	blob, err := evaluate(ctx, s.sessionFor(j.synthetics), j)
	if err != nil {
		return err
	}
	s.putReport(j.reportKey, blob)
	if len(j.thresholds) > 0 {
		j.log(fmt.Sprintf("sweep report stored (%d bytes, %d thresholds)", len(blob), len(j.thresholds)))
	} else {
		j.log(fmt.Sprintf("report stored (%d bytes)", len(blob)))
	}
	// Only full cold runs feed the Retry-After estimate — cache hits
	// would drag the mean toward zero and make shed hints dishonest.
	s.observeService(time.Since(started))
	s.srvComputed.Add(1)
	return nil
}

// evaluate computes job j's document on sess: the canonical sweep
// document for a sweep job, else the canonical report sequence.
func evaluate(ctx context.Context, sess *opgate.Session, j *job) ([]byte, error) {
	if len(j.thresholds) > 0 {
		sw, err := sess.Sweep(ctx, j.experiment, j.thresholds...)
		if err != nil {
			return nil, err
		}
		return opgate.EncodeSweep(sw)
	}
	at := opgate.AtThreshold(j.threshold)
	var reports []*opgate.Report
	if j.experiment == "all" {
		exps := opgate.Experiments()
		for i, e := range exps {
			r, err := sess.Run(ctx, e.ID, at)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", e.ID, err)
			}
			reports = append(reports, r)
			j.log(fmt.Sprintf("%s done (%d/%d)", e.ID, i+1, len(exps)))
		}
	} else {
		r, err := sess.Run(ctx, j.experiment, at)
		if err != nil {
			return nil, err
		}
		reports = []*opgate.Report{r}
		j.log(j.experiment + " done")
	}
	return opgate.EncodeReports(reports)
}

// getReport serves a report blob from the in-memory cache, falling back to
// the persistent store (and re-warming the memory cache on a hit).
func (s *server) getReport(key store.Key) ([]byte, bool) {
	s.reportMu.Lock()
	data, ok := s.reports[key]
	s.reportMu.Unlock()
	if ok {
		return data, true
	}
	if s.cfg.Store == nil {
		return nil, false
	}
	data, ok = s.cfg.Store.Get(key)
	if ok {
		s.cacheReport(key, data)
	}
	return data, ok
}

func (s *server) putReport(key store.Key, data []byte) {
	s.cacheReport(key, data)
	if s.cfg.Store != nil {
		_ = s.cfg.Store.Put(key, data) // best-effort, like trace write-back
	}
}

func (s *server) cacheReport(key store.Key, data []byte) {
	s.reportMu.Lock()
	defer s.reportMu.Unlock()
	if _, ok := s.reports[key]; !ok {
		s.reportOrder = append(s.reportOrder, key)
		for len(s.reportOrder) > reportCacheMax {
			delete(s.reports, s.reportOrder[0])
			s.reportOrder = s.reportOrder[1:]
		}
	}
	s.reports[key] = data
}

// job is one enqueued experiment evaluation. Its definition is fixed by
// newJob and read without locking; its lifecycle — status, error, stack
// and progress — lives in rec, the wire record, which only transition
// moves.
type job struct {
	id         string
	experiment string
	thresholds []float64 // a sweep's grid; empty for a plain job
	threshold  float64
	synthetics []string
	reportKey  store.Key
	ctx        context.Context
	cancel     context.CancelFunc

	// direct pins the job to this node (Request.Direct): a forwarded
	// submission must never forward again.
	direct bool

	// onEvent, when set, is the durable-journal hook: invoked under j.mu
	// on every status transition, so the journal's per-job order is
	// exactly the status order.
	onEvent func(status, errmsg string)

	mu      sync.Mutex
	rec     client.Job
	changed chan struct{} // closed and replaced on every mutation (broadcast)
}

// newJob builds a job from its wire record in the state it was submitted
// or recovered in, with msg as its first progress line. That first state
// is not a transition and is not journaled: a submission journals it
// through journalInitial once the job is registered, and a recovered
// job's state is what the journal already holds.
func (s *server) newJob(rec client.Job, msg string) *job {
	ctx, cancel := context.WithCancel(context.Background())
	rec.Progress = []client.ProgressEvent{{Time: time.Now(), Msg: msg}}
	j := &job{
		id:         rec.ID,
		experiment: rec.Experiment,
		thresholds: rec.Thresholds,
		threshold:  rec.Threshold,
		synthetics: rec.Synthetics,
		reportKey:  store.Key(rec.ReportKey),
		ctx:        ctx,
		cancel:     cancel,
		rec:        rec,
		changed:    make(chan struct{}),
	}
	s.bindJournal(j)
	return j
}

// bumpLocked wakes every follower blocked on the change channel (j.mu
// held): close-and-replace is a one-to-many broadcast with no goroutine
// bookkeeping.
func (j *job) bumpLocked() {
	close(j.changed)
	j.changed = make(chan struct{})
}

// watch returns a channel that closes on the job's next mutation.
func (j *job) watch() <-chan struct{} {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.changed
}

// journalInitial journals the "queued" record, unless a racing cancel
// already turned the job terminal (its record is then the only one).
func (j *job) journalInitial() {
	j.mu.Lock()
	if j.rec.Status == client.StatusQueued && j.onEvent != nil {
		j.onEvent(client.StatusQueued, "")
	}
	j.mu.Unlock()
}

// transition is the job's one status writer: it moves the job to status
// with errmsg as its error and msg as a progress line, journals the
// change and wakes followers. It refuses, returning false, to leave a
// terminal status — terminal states are absorbing — or, when from is
// given, a status not listed in it.
func (j *job) transition(status, errmsg, msg string, from ...string) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.transitionLocked(status, errmsg, msg, from...)
}

// transitionLocked is transition with j.mu held.
func (j *job) transitionLocked(status, errmsg, msg string, from ...string) bool {
	if client.TerminalStatus(j.rec.Status) || (len(from) > 0 && !slices.Contains(from, j.rec.Status)) {
		return false
	}
	j.rec.Status, j.rec.Error = status, errmsg
	j.rec.Progress = append(j.rec.Progress, client.ProgressEvent{Time: time.Now(), Msg: msg})
	if j.onEvent != nil {
		j.onEvent(status, errmsg)
	}
	j.bumpLocked()
	return true
}

// finishErr ends the job on err: context cancellation is "canceled", a
// blown job deadline "timeout", anything else "failed".
func (j *job) finishErr(err error) {
	switch {
	case errors.Is(err, context.Canceled):
		j.transition(client.StatusCanceled, "", client.StatusCanceled)
	case errors.Is(err, context.DeadlineExceeded):
		j.transition(client.StatusTimeout, err.Error(), "timeout: "+err.Error())
	default:
		j.transition(client.StatusFailed, err.Error(), "failed: "+err.Error())
	}
}

// failPanic records a recovered panic: the job fails with the panic value
// as its error and the stack preserved in the job record, set under the
// same lock so no reader sees the failure without it. A job already
// terminal keeps its status; the log line still carries the stack.
func (j *job) failPanic(p any, stack []byte) {
	msg := fmt.Sprintf("panic: %v", p)
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.transitionLocked(client.StatusFailed, msg, msg) {
		j.rec.Stack = string(stack)
	}
}

func (j *job) log(msg string) {
	j.mu.Lock()
	j.rec.Progress = append(j.rec.Progress, client.ProgressEvent{Time: time.Now(), Msg: msg})
	j.bumpLocked()
	j.mu.Unlock()
}

func (j *job) terminal() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return client.TerminalStatus(j.rec.Status)
}

func (j *job) view() client.Job {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := j.rec
	v.Progress = append([]client.ProgressEvent(nil), j.rec.Progress...)
	return v
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}
