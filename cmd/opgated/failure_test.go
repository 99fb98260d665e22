package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"opgate/client"
)

// awaitStatus polls a job until it reports the wanted status.
func awaitStatus(t *testing.T, ts *httptest.Server, id, want string) client.Job {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	var v client.Job
	for time.Now().Before(deadline) {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(resp.Body).Decode(&v)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if v.Status == want {
			return v
		}
		if client.TerminalStatus(v.Status) {
			t.Fatalf("job %s ended %q (%s), want %q", id, v.Status, v.Error, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %q (last %q)", id, want, v.Status)
	return client.Job{}
}

// TestGracefulDrain is the lifecycle acceptance test: with one running
// and one queued job, Drain flips /readyz unready, refuses new POSTs with
// 503 + Retry-After, turns the queued job "aborted", lets the running job
// finish inside the drain window, and reports a clean drain.
func TestGracefulDrain(t *testing.T) {
	block := make(chan struct{})
	cfg := serverConfig{
		Quick: true, Workers: 1, Queue: 4, DrainTimeout: 20 * time.Second,
		hookJobStart: func(ctx context.Context, j *job) {
			if j.experiment == "fig2" {
				<-block // hold the worker until the drain is underway
			}
		},
	}
	srv := newServer(cfg)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	running, code := submit(t, ts, `{"experiment":"fig2"}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit returned %d", code)
	}
	awaitStatus(t, ts, running.ID, "running")
	queued, code := submit(t, ts, `{"experiment":"table1"}`)
	if code != http.StatusAccepted {
		t.Fatalf("second submit returned %d", code)
	}

	drained := make(chan bool, 1)
	go func() { drained <- srv.Drain() }()

	// The queued job turns terminal "aborted" without ever running.
	if v := awaitJob(t, ts, queued.ID); v.Status != "aborted" {
		t.Fatalf("queued job ended %q, want aborted", v.Status)
	}
	// Readiness flips the moment the drain begins; liveness stays OK.
	rr, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	rr.Body.Close()
	if rr.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz during drain returned %d, want 503", rr.StatusCode)
	}
	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("healthz during drain returned %d, want 200", hr.StatusCode)
	}
	// New work is refused with a retry hint.
	resp, err := http.Post(ts.URL+"/v1/experiments", "application/json",
		strings.NewReader(`{"experiment":"table2"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit during drain returned %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("drain 503 carries no Retry-After")
	}

	// Release the running job: it finishes naturally and the drain is clean.
	close(block)
	select {
	case clean := <-drained:
		if !clean {
			t.Fatal("drain reported stragglers despite all jobs finishing")
		}
	case <-time.After(20 * time.Second):
		t.Fatal("drain did not return")
	}
	if v := awaitJob(t, ts, running.ID); v.Status != "done" {
		t.Fatalf("running job ended %q (%s), want done", v.Status, v.Error)
	}
}

// TestDrainCancelsStragglers: a running job that outlives the drain
// timeout is cancelled and still reaches a terminal state, so the drain
// completes (cleanly) instead of hanging on a stuck job.
func TestDrainCancelsStragglers(t *testing.T) {
	cfg := serverConfig{
		Quick: true, Workers: 1, Queue: 4, DrainTimeout: 200 * time.Millisecond,
		hookJobStart: func(ctx context.Context, j *job) {
			<-ctx.Done() // a job that only yields to cancellation
		},
	}
	srv := newServer(cfg)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	stuck, _ := submit(t, ts, `{"experiment":"fig2"}`)
	awaitStatus(t, ts, stuck.ID, "running")
	if !srv.Drain() {
		t.Fatal("drain did not settle the stuck job after cancelling it")
	}
	if v := awaitJob(t, ts, stuck.ID); v.Status != "canceled" {
		t.Fatalf("stuck job ended %q, want canceled", v.Status)
	}
}

// TestJobTimeout: a job that exceeds -job-timeout ends with the distinct
// terminal status "timeout" and leaves no report behind.
func TestJobTimeout(t *testing.T) {
	cfg := serverConfig{
		Quick: true, Workers: 1, Queue: 4, JobTimeout: 100 * time.Millisecond,
		hookJobStart: func(ctx context.Context, j *job) {
			if j.experiment == "fig2" {
				<-ctx.Done() // burn the whole deadline before the run starts
			}
		},
	}
	ts := httptest.NewServer(newServer(cfg))
	t.Cleanup(ts.Close)

	v, code := submit(t, ts, `{"experiment":"fig2"}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit returned %d", code)
	}
	done := awaitJob(t, ts, v.ID)
	if done.Status != "timeout" {
		t.Fatalf("job ended %q (%s), want timeout", done.Status, done.Error)
	}
	if !strings.Contains(done.Error, "deadline") {
		t.Fatalf("timeout job's error is %q, want a deadline error", done.Error)
	}
	resp, err := http.Get(ts.URL + "/v1/reports/" + done.ReportKey)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("timed-out job left a report behind (%d)", resp.StatusCode)
	}
}

// TestPanicIsolation: a panicking job fails alone — the job records the
// panic message and stack, and the same single worker then serves the
// next job, proving the pool survived.
func TestPanicIsolation(t *testing.T) {
	cfg := serverConfig{
		Quick: true, Workers: 1, Queue: 4,
		hookJobStart: func(ctx context.Context, j *job) {
			if j.experiment == "fig2" {
				panic("injected experiment panic")
			}
		},
	}
	ts := httptest.NewServer(newServer(cfg))
	t.Cleanup(ts.Close)

	v, _ := submit(t, ts, `{"experiment":"fig2"}`)
	done := awaitJob(t, ts, v.ID)
	if done.Status != "failed" {
		t.Fatalf("panicked job ended %q, want failed", done.Status)
	}
	if !strings.Contains(done.Error, "panic: injected experiment panic") {
		t.Fatalf("panicked job's error is %q", done.Error)
	}
	if !strings.Contains(done.Stack, "runJob") {
		t.Fatalf("job record carries no useful stack: %q", done.Stack)
	}

	// The pool is alive: the only worker picks up and finishes new work.
	next, code := submit(t, ts, `{"experiment":"table1"}`)
	if code != http.StatusAccepted {
		t.Fatalf("post-panic submit returned %d", code)
	}
	if v := awaitJob(t, ts, next.ID); v.Status != "done" {
		t.Fatalf("post-panic job ended %q (%s)", v.Status, v.Error)
	}
}

// TestFollowDisconnectReleasesHandler is the satellite bugfix's probe: a
// follower that goes away mid-job releases its handler promptly (the
// stream is tied to the request context) instead of idling until the job
// ends.
func TestFollowDisconnectReleasesHandler(t *testing.T) {
	block := make(chan struct{})
	cfg := serverConfig{
		Quick: true, Workers: 1, Queue: 4,
		hookJobStart: func(ctx context.Context, j *job) {
			select {
			case <-block:
			case <-ctx.Done():
			}
		},
	}
	srv := newServer(cfg)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	t.Cleanup(func() { close(block) })

	v, _ := submit(t, ts, `{"experiment":"fig2"}`)
	awaitStatus(t, ts, v.ID, "running")

	resp, err := http.Get(ts.URL + "/v1/jobs/" + v.ID + "?follow=1")
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the handler is registered, then vanish.
	deadline := time.Now().Add(5 * time.Second)
	for srv.followers.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if srv.followers.Load() != 1 {
		t.Fatal("follow handler never registered")
	}
	resp.Body.Close()

	deadline = time.Now().Add(5 * time.Second)
	for srv.followers.Load() != 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if srv.followers.Load() != 0 {
		t.Fatal("follow handler still running after the client disconnected")
	}
	// The job is genuinely still in flight — the handler exit came from
	// the disconnect, not from the job finishing.
	if got := awaitStatus(t, ts, v.ID, "running"); client.TerminalStatus(got.Status) {
		t.Fatalf("job unexpectedly terminal: %q", got.Status)
	}
}

// TestClientEndToEnd drives the real server through the public retrying
// client: submit+wait+decode via Run, live progress via Follow, and
// cancellation via Cancel.
func TestClientEndToEnd(t *testing.T) {
	block := make(chan struct{})
	// followed holds the fig2 job until Follow has seen its first frame,
	// so the stream cannot open on the job's terminal frame.
	followed := make(chan struct{})
	var release sync.Once
	cfg := serverConfig{
		Quick: true, Workers: 2, Queue: 8,
		hookJobStart: func(ctx context.Context, j *job) {
			var hold chan struct{}
			switch j.experiment {
			case "fig4":
				hold = block
			case "fig2":
				hold = followed
			default:
				return
			}
			select {
			case <-hold:
			case <-ctx.Done():
			}
		},
	}
	ts := httptest.NewServer(newServer(cfg))
	t.Cleanup(ts.Close)
	t.Cleanup(func() { close(block) })
	t.Cleanup(func() { release.Do(func() { close(followed) }) })

	c, err := client.New(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	res, err := c.Run(ctx, client.Request{Experiment: "table1", Threshold: 50})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Reports) != 1 || res.Reports[0].ID != "table1" {
		t.Fatalf("Run decoded %d reports (first ID %q)", len(res.Reports), res.Reports[0].ID)
	}
	if res.Sweep != nil || res.Job.Status != client.StatusDone {
		t.Fatalf("Run result misclassified: %+v", res)
	}

	// Follow sees the full lifecycle of a fresh job.
	j, err := c.Submit(ctx, client.Request{Experiment: "fig2"})
	if err != nil {
		t.Fatal(err)
	}
	var statuses []string
	last, err := c.Follow(ctx, j.ID, func(f client.Job) error {
		statuses = append(statuses, f.Status)
		release.Do(func() { close(followed) })
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if last.Status != client.StatusDone || len(statuses) < 2 {
		t.Fatalf("follow ended %q after %d frames", last.Status, len(statuses))
	}

	// Cancel a hook-stalled job through the client.
	stalled, err := c.Submit(ctx, client.Request{Experiment: "fig4"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Cancel(ctx, stalled.ID); err != nil {
		t.Fatal(err)
	}
	final, err := c.Wait(ctx, stalled.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != client.StatusCanceled {
		t.Fatalf("canceled job ended %q", final.Status)
	}
}
