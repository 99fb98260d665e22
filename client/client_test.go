package client

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"opgate"
)

// fastPolicy keeps unit-test backoffs tiny.
var fastPolicy = RetryPolicy{MaxAttempts: 5, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond}

func newClient(t *testing.T, ts *httptest.Server, opts ...Option) *Client {
	t.Helper()
	c, err := New(ts.URL, append([]Option{WithRetryPolicy(fastPolicy)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func writeJob(w http.ResponseWriter, status int, j Job) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(j)
}

// TestSubmitRetries503HonoringRetryAfter: refused submissions retry, and
// a server-stated Retry-After of 0 overrides the client's (deliberately
// huge) computed backoff — the call succeeds fast, proving the header won.
func TestSubmitRetries503HonoringRetryAfter(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			w.Header().Set("Retry-After", "0")
			http.Error(w, `{"error":"job queue full"}`, http.StatusServiceUnavailable)
			return
		}
		writeJob(w, http.StatusAccepted, Job{ID: "job-000001", Status: StatusQueued})
	}))
	defer ts.Close()

	c := newClient(t, ts, WithRetryPolicy(RetryPolicy{MaxAttempts: 5, BaseDelay: 10 * time.Second, MaxDelay: 20 * time.Second}))
	start := time.Now()
	j, err := c.Submit(context.Background(), Request{Experiment: "fig2"})
	if err != nil {
		t.Fatal(err)
	}
	if j.ID != "job-000001" || calls.Load() != 3 {
		t.Fatalf("job %+v after %d calls, want job-000001 after 3", j, calls.Load())
	}
	if took := time.Since(start); took > 2*time.Second {
		t.Fatalf("Retry-After: 0 was not honored: call took %s against a 10s base backoff", took)
	}
}

// TestReportBytesRetries503HonoringRetryAfter: a report fetch refused
// with 503 is retried after the server-stated Retry-After (0 here, against
// a 10s computed backoff), every attempt negotiates the JSON form, and the
// stored bytes come back verbatim; a 404 is final.
func TestReportBytesRetries503HonoringRetryAfter(t *testing.T) {
	const doc = `{"schema":"opgate.reports/v1"}`
	var calls atomic.Int32
	var mu sync.Mutex
	var accepts []string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		accepts = append(accepts, r.Header.Get("Accept"))
		mu.Unlock()
		if r.URL.Path != "/v1/reports/cafe0123" {
			http.Error(w, `{"error":"no such report"}`, http.StatusNotFound)
			return
		}
		if calls.Add(1) <= 2 {
			w.Header().Set("Retry-After", "0")
			http.Error(w, `{"error":"draining"}`, http.StatusServiceUnavailable)
			return
		}
		fmt.Fprint(w, doc)
	}))
	defer ts.Close()

	c := newClient(t, ts, WithRetryPolicy(RetryPolicy{MaxAttempts: 5, BaseDelay: 10 * time.Second, MaxDelay: 20 * time.Second}))
	start := time.Now()
	blob, err := c.ReportBytes(context.Background(), "cafe0123")
	if err != nil {
		t.Fatal(err)
	}
	if string(blob) != doc || calls.Load() != 3 {
		t.Fatalf("got %q after %d calls, want the document after 3", blob, calls.Load())
	}
	if took := time.Since(start); took > 2*time.Second {
		t.Fatalf("Retry-After: 0 was not honored: fetch took %s against a 10s base backoff", took)
	}

	var apiErr *APIError
	if _, err := c.ReportBytes(context.Background(), "beef"); !errors.As(err, &apiErr) || apiErr.Status != http.StatusNotFound {
		t.Fatalf("missing report: err = %v, want a 404 *APIError", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(accepts) != 4 {
		t.Fatalf("server saw %d requests, want 3 attempts and one unretried 404", len(accepts))
	}
	for i, a := range accepts {
		if a != "application/json" {
			t.Errorf("request %d sent Accept %q, want application/json", i+1, a)
		}
	}
}

// TestSubmitNotRetriedOnOtherErrors: a 500 from POST is terminal — the
// submission outcome is unknown, so the client must not blindly replay.
func TestSubmitNotRetriedOnOtherErrors(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, `{"error":"boom"}`, http.StatusInternalServerError)
	}))
	defer ts.Close()

	_, err := newClient(t, ts).Submit(context.Background(), Request{Experiment: "fig2"})
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusInternalServerError {
		t.Fatalf("got %v, want APIError 500", err)
	}
	if calls.Load() != 1 {
		t.Fatalf("500 POST was attempted %d times, want 1", calls.Load())
	}
}

// TestSubmitExhaustsRetryBudget: a persistently refusing server yields
// the last 503 as an APIError after exactly MaxAttempts tries.
func TestSubmitExhaustsRetryBudget(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.Header().Set("Retry-After", "0")
		http.Error(w, `{"error":"draining"}`, http.StatusServiceUnavailable)
	}))
	defer ts.Close()

	_, err := newClient(t, ts).Submit(context.Background(), Request{Experiment: "fig2"})
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusServiceUnavailable {
		t.Fatalf("got %v, want APIError 503", err)
	}
	if got := calls.Load(); got != int32(fastPolicy.MaxAttempts) {
		t.Fatalf("made %d attempts, want %d", got, fastPolicy.MaxAttempts)
	}
}

// TestGetRetriesTransientFaults: idempotent GETs ride out 5xx bursts and
// transport-level drops.
func TestGetRetriesTransientFaults(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch calls.Add(1) {
		case 1:
			http.Error(w, `{"error":"transient"}`, http.StatusBadGateway)
		case 2:
			// Transport fault: kill the connection mid-response.
			hj, ok := w.(http.Hijacker)
			if !ok {
				t.Error("hijack unsupported")
				return
			}
			conn, _, _ := hj.Hijack()
			conn.Close()
		default:
			writeJob(w, http.StatusOK, Job{ID: r.PathValue("id"), Status: StatusDone})
		}
	}))
	defer ts.Close()

	j, err := newClient(t, ts).Job(context.Background(), "job-000007")
	if err != nil {
		t.Fatal(err)
	}
	if j.Status != StatusDone || calls.Load() != 3 {
		t.Fatalf("job %+v after %d calls", j, calls.Load())
	}
}

// TestContextCancelsBackoff: a context deadline cuts through a long
// server-stated Retry-After instead of sleeping it out.
func TestContextCancelsBackoff(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "30")
		http.Error(w, `{"error":"draining"}`, http.StatusServiceUnavailable)
	}))
	defer ts.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := newClient(t, ts).Submit(ctx, Request{Experiment: "fig2"})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want context.DeadlineExceeded", err)
	}
	if took := time.Since(start); took > 2*time.Second {
		t.Fatalf("cancellation took %s, backoff was not context-aware", took)
	}
}

// TestWaitPollsToTerminal: Wait keeps polling through non-terminal
// snapshots and returns the first terminal one.
func TestWaitPollsToTerminal(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		status := StatusRunning
		if calls.Add(1) >= 3 {
			status = StatusDone
		}
		writeJob(w, http.StatusOK, Job{ID: "j", Status: status})
	}))
	defer ts.Close()

	j, err := newClient(t, ts).Wait(context.Background(), "j")
	if err != nil {
		t.Fatal(err)
	}
	if j.Status != StatusDone || calls.Load() < 3 {
		t.Fatalf("wait ended %+v after %d polls", j, calls.Load())
	}
}

// TestFollowReconnects: a follow stream severed mid-job is transparently
// re-followed; every progress event is delivered exactly once and the
// final frame is terminal.
func TestFollowReconnects(t *testing.T) {
	var conns atomic.Int32
	frame := func(status, msg string) Job {
		return Job{ID: "j", Status: status, Progress: []ProgressEvent{{Time: time.Now(), Msg: msg}}}
	}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		enc := json.NewEncoder(w)
		if conns.Add(1) == 1 {
			// One frame, then the connection dies.
			_ = enc.Encode(frame(StatusQueued, "queued"))
			hj, _ := w.(http.Hijacker)
			conn, _, _ := hj.Hijack()
			conn.Close()
			return
		}
		// Reconnect: full replay, then progress to terminal.
		_ = enc.Encode(frame(StatusQueued, "queued"))
		_ = enc.Encode(frame(StatusRunning, "running"))
		_ = enc.Encode(frame(StatusDone, "done"))
	}))
	defer ts.Close()

	var msgs []string
	j, err := newClient(t, ts).Follow(context.Background(), "j", func(f Job) error {
		msgs = append(msgs, f.Progress[len(f.Progress)-1].Msg)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if j.Status != StatusDone {
		t.Fatalf("follow ended %q", j.Status)
	}
	if want := []string{"queued", "running", "done"}; fmt.Sprint(msgs) != fmt.Sprint(want) {
		t.Fatalf("frames delivered %v, want %v (no duplicates across reconnects)", msgs, want)
	}
	if conns.Load() != 2 {
		t.Fatalf("follow used %d connections, want 2", conns.Load())
	}
}

// TestFollowCallbackErrorAborts: fn's error stops the stream and is
// returned verbatim.
func TestFollowCallbackErrorAborts(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		enc := json.NewEncoder(w)
		_ = enc.Encode(Job{ID: "j", Status: StatusRunning, Progress: []ProgressEvent{{Msg: "running"}}})
		_ = enc.Encode(Job{ID: "j", Status: StatusDone, Progress: []ProgressEvent{{Msg: "done"}}})
	}))
	defer ts.Close()

	boom := errors.New("enough")
	_, err := newClient(t, ts).Follow(context.Background(), "j", func(Job) error { return boom })
	if !errors.Is(err, boom) {
		t.Fatalf("got %v, want the callback's error", err)
	}
}

// TestTerminalStatusTable pins the status state machine's terminal set.
func TestTerminalStatusTable(t *testing.T) {
	for status, terminal := range map[string]bool{
		StatusQueued: false, StatusRunning: false,
		StatusDone: true, StatusFailed: true, StatusTimeout: true,
		StatusCanceled: true, StatusAborted: true,
		"": false, "unknown": false,
	} {
		if got := TerminalStatus(status); got != terminal {
			t.Errorf("TerminalStatus(%q) = %v, want %v", status, got, terminal)
		}
	}
}

// TestRetryAfterParsing covers both header forms and garbage.
func TestRetryAfterParsing(t *testing.T) {
	mk := func(v string) *http.Response {
		h := http.Header{}
		if v != "" {
			h.Set("Retry-After", v)
		}
		return &http.Response{Header: h}
	}
	if d, ok := retryAfter(mk("7")); !ok || d != 7*time.Second {
		t.Fatalf("seconds form: %v %v", d, ok)
	}
	date := time.Now().Add(3 * time.Second).UTC().Format(http.TimeFormat)
	if d, ok := retryAfter(mk(date)); !ok || d <= 0 || d > 3*time.Second {
		t.Fatalf("date form: %v %v", d, ok)
	}
	for _, bad := range []string{"", "soon", "-4"} {
		if _, ok := retryAfter(mk(bad)); ok {
			t.Fatalf("retryAfter accepted %q", bad)
		}
	}
}

// TestDelayShape: backoff grows from BaseDelay, never exceeds MaxDelay,
// and keeps at least half the nominal delay (equal jitter).
func TestDelayShape(t *testing.T) {
	p := RetryPolicy{BaseDelay: 100 * time.Millisecond, MaxDelay: time.Second}.withDefaults()
	for n := 1; n <= 40; n++ {
		nominal := min(p.BaseDelay<<(n-1), p.MaxDelay)
		if p.BaseDelay<<(n-1) <= 0 { // shift overflow far out on the curve
			nominal = p.MaxDelay
		}
		for i := 0; i < 20; i++ {
			d := p.delay(n)
			if d < nominal/2 || d > nominal {
				t.Fatalf("delay(%d) = %v outside [%v, %v]", n, d, nominal/2, nominal)
			}
		}
	}
}

// TestNewValidatesBaseURL: a schemeless base is refused at construction.
func TestNewValidatesBaseURL(t *testing.T) {
	if _, err := New("localhost:8080"); err == nil {
		t.Fatal("New accepted a schemeless base URL")
	}
}

// TestRetryAfterErrorTyped: a refused call whose response carried a
// parseable Retry-After surfaces as *RetryAfterError exposing the hint —
// and still matches *APIError, so status-code handling is unaffected.
func TestRetryAfterErrorTyped(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "7")
		http.Error(w, `{"error":"shedding uncached work under load"}`, http.StatusServiceUnavailable)
	}))
	defer ts.Close()

	_, err := newClient(t, ts, WithRetryPolicy(RetryPolicy{MaxAttempts: 1})).
		Submit(context.Background(), Request{Experiment: "fig2"})
	var ra *RetryAfterError
	if !errors.As(err, &ra) {
		t.Fatalf("got %v (%T), want *RetryAfterError", err, err)
	}
	if ra.RetryAfter != 7*time.Second || ra.Status != http.StatusServiceUnavailable {
		t.Fatalf("hint %s status %d, want 7s / 503", ra.RetryAfter, ra.Status)
	}
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusServiceUnavailable {
		t.Fatalf("RetryAfterError does not unwrap to *APIError: %v", err)
	}
}

// TestRunSurvivesServerRestart: the job 404s mid-wait (a restart lost the
// job record), but the report exists under the submission's
// content-addressed key — Run falls back to the report store instead of
// failing.
func TestRunSurvivesServerRestart(t *testing.T) {
	blob, err := opgate.EncodeReports([]*opgate.Report{{ID: "fig2", Title: "restart survivor"}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.Method == http.MethodPost:
			writeJob(w, http.StatusAccepted, Job{ID: "job-000001", Status: StatusQueued, ReportKey: "cafe0123"})
		case r.URL.Path == "/v1/jobs/job-000001":
			// The restarted process never heard of the job.
			http.Error(w, `{"error":"no such job"}`, http.StatusNotFound)
		case r.URL.Path == "/v1/reports/cafe0123":
			w.Header().Set("Content-Type", "application/json")
			_, _ = w.Write(blob)
		default:
			http.Error(w, `{"error":"unexpected call"}`, http.StatusBadRequest)
		}
	}))
	defer ts.Close()

	res, err := newClient(t, ts).Run(context.Background(), Request{Experiment: "fig2"})
	if err != nil {
		t.Fatalf("Run did not survive the restart: %v", err)
	}
	if len(res.Reports) != 1 || res.Reports[0].Title != "restart survivor" {
		t.Fatalf("Run returned %+v", res.Reports)
	}
}

// TestRunReportsGenuineLoss: when the restarted server lost both the job
// and the report, Run surfaces the original 404 instead of masking it.
func TestRunReportsGenuineLoss(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			writeJob(w, http.StatusAccepted, Job{ID: "job-000001", Status: StatusQueued, ReportKey: "cafe0123"})
			return
		}
		http.Error(w, `{"error":"not found"}`, http.StatusNotFound)
	}))
	defer ts.Close()

	_, err := newClient(t, ts).Run(context.Background(), Request{Experiment: "fig2"})
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusNotFound {
		t.Fatalf("got %v, want the job's 404", err)
	}
}
