package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"opgate"
	"opgate/client"
	"opgate/internal/harness"
	"opgate/internal/store"
)

// newTestServer runs a quick-mode service (optionally store-backed) over
// httptest.
func newTestServer(t *testing.T, st *store.Store) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(newServer(serverConfig{Quick: true, Workers: 2, Store: st}))
	t.Cleanup(ts.Close)
	return ts
}

// submit POSTs an experiment request and decodes the job view.
func submit(t *testing.T, ts *httptest.Server, body string) (client.Job, int) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/experiments", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v client.Job
	if resp.StatusCode == http.StatusAccepted || resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			t.Fatal(err)
		}
	}
	return v, resp.StatusCode
}

// awaitJob polls a job until it reaches a terminal state.
func awaitJob(t *testing.T, ts *httptest.Server, id string) client.Job {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var v client.Job
		err = json.NewDecoder(resp.Body).Decode(&v)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if client.TerminalStatus(v.Status) {
			return v
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatal("job did not finish in time")
	return client.Job{}
}

// TestExperimentLifecycle drives the whole request path: submit, follow to
// completion, fetch the report by key, and check it is exactly what the
// suite renders directly.
func TestExperimentLifecycle(t *testing.T) {
	ts := newTestServer(t, nil)

	v, code := submit(t, ts, `{"experiment":"table1","threshold":50}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit returned %d", code)
	}
	if v.Status == "" || v.ReportKey == "" {
		t.Fatalf("job view incomplete: %+v", v)
	}
	done := awaitJob(t, ts, v.ID)
	if done.Status != "done" {
		t.Fatalf("job ended %q (%s)", done.Status, done.Error)
	}

	resp, err := http.Get(ts.URL + "/v1/reports/" + done.ReportKey)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got bytes.Buffer
	if _, err := got.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("report fetch returned %d: %s", resp.StatusCode, got.String())
	}

	rep, err := harness.NewSuite(true).RunExperiment(context.Background(), "table1", 50)
	if err != nil {
		t.Fatal(err)
	}
	want := new(bytes.Buffer)
	if err := (harness.TextRenderer{}).Render(want, []*harness.Report{rep}); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Fatal("served report differs from a direct suite render")
	}

	// Content negotiation: the same key serves the canonical structured
	// encoding under Accept: application/json.
	req, err := http.NewRequest("GET", ts.URL+"/v1/reports/"+done.ReportKey, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "application/json")
	jresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer jresp.Body.Close()
	if ct := jresp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("negotiated report served as %q", ct)
	}
	var jgot bytes.Buffer
	if _, err := jgot.ReadFrom(jresp.Body); err != nil {
		t.Fatal(err)
	}
	reports, err := opgate.DecodeReports(jgot.Bytes())
	if err != nil {
		t.Fatalf("negotiated report is not canonical JSON: %v", err)
	}
	if len(reports) != 1 || reports[0].ID != "table1" || !reports[0].Equal(rep) {
		t.Fatalf("structured report drifted from a direct suite build")
	}
	wantBlob, err := opgate.EncodeReports([]*harness.Report{rep})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(jgot.Bytes(), wantBlob) {
		t.Fatal("served JSON is not the canonical encoding")
	}
}

// TestCoalescingAndWarmServe: identical concurrent submissions share one
// job; a later identical submission is served from the report cache
// without re-rendering.
func TestCoalescingAndWarmServe(t *testing.T) {
	ts := newTestServer(t, nil)

	// fig2 is cheap in quick mode but slow enough (~ms) that the second
	// POST lands while the first is queued or running.
	body := `{"experiment":"fig2"}`
	first, code := submit(t, ts, body)
	if code != http.StatusAccepted {
		t.Fatalf("first submit returned %d", code)
	}
	second, code2 := submit(t, ts, body)
	if code2 == http.StatusOK && second.ID != first.ID {
		t.Fatalf("coalesced submit returned a different job: %s vs %s", second.ID, first.ID)
	}
	done := awaitJob(t, ts, first.ID)
	if done.Status != "done" {
		t.Fatalf("job ended %q (%s)", done.Status, done.Error)
	}

	third, code3 := submit(t, ts, body)
	if code3 != http.StatusAccepted {
		t.Fatalf("post-completion submit returned %d", code3)
	}
	if third.ReportKey != first.ReportKey {
		t.Fatal("identical request derived a different report key")
	}
	tdone := awaitJob(t, ts, third.ID)
	cached := false
	for _, ev := range tdone.Progress {
		if strings.Contains(ev.Msg, "served from cache") {
			cached = true
		}
	}
	if !cached {
		t.Fatalf("repeat job re-rendered instead of serving from cache: %+v", tdone.Progress)
	}
}

// TestReportsPersistAcrossRestart: with a store attached, a new server
// process serves reports rendered by the old one.
func TestReportsPersistAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	ts := newTestServer(t, st)
	v, _ := submit(t, ts, `{"experiment":"table2"}`)
	done := awaitJob(t, ts, v.ID)
	if done.Status != "done" {
		t.Fatalf("job ended %q (%s)", done.Status, done.Error)
	}
	ts.Close()

	st2, err := store.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	ts2 := newTestServer(t, st2)
	resp, err := http.Get(ts2.URL + "/v1/reports/" + done.ReportKey)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("restarted server returned %d for a persisted report", resp.StatusCode)
	}
	// And a re-submitted job is served from it without re-rendering.
	v2, _ := submit(t, ts2, `{"experiment":"table2"}`)
	done2 := awaitJob(t, ts2, v2.ID)
	served := false
	for _, ev := range done2.Progress {
		served = served || strings.Contains(ev.Msg, "served from cache")
	}
	if !served {
		t.Fatalf("restarted server re-rendered a persisted report: %+v", done2.Progress)
	}
}

// TestFollowStreamsProgress: ?follow=1 delivers NDJSON frames ending in a
// terminal status.
func TestFollowStreamsProgress(t *testing.T) {
	ts := newTestServer(t, nil)
	v, _ := submit(t, ts, `{"experiment":"table1"}`)

	resp, err := http.Get(ts.URL + "/v1/jobs/" + v.ID + "?follow=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var frames []client.Job
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var f client.Job
		if err := json.Unmarshal(sc.Bytes(), &f); err != nil {
			t.Fatalf("bad NDJSON frame %q: %v", sc.Text(), err)
		}
		frames = append(frames, f)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(frames) < 2 {
		t.Fatalf("follow delivered %d frames, want at least queued+done", len(frames))
	}
	if last := frames[len(frames)-1]; last.Status != "done" {
		t.Fatalf("stream ended on status %q", last.Status)
	}
}

// TestRequestValidation: malformed bodies, unknown experiments, bad
// synthetic specs and bad report keys are all clean 4xx responses.
func TestRequestValidation(t *testing.T) {
	ts := newTestServer(t, nil)
	for name, c := range map[string]struct {
		method, path, body string
		want               int
	}{
		"bad-json":        {"POST", "/v1/experiments", "{", http.StatusBadRequest},
		"unknown-exp":     {"POST", "/v1/experiments", `{"experiment":"fig99"}`, http.StatusBadRequest},
		"bad-threshold":   {"POST", "/v1/experiments", `{"experiment":"fig4","threshold":-50}`, http.StatusBadRequest},
		"bad-synthetic":   {"POST", "/v1/experiments", `{"experiment":"fig2","synthetic":"nosuchfamily"}`, http.StatusBadRequest},
		"orphan-seed":     {"POST", "/v1/experiments", `{"experiment":"fig2","seed":3}`, http.StatusBadRequest},
		"missing-job":     {"GET", "/v1/jobs/job-999999", "", http.StatusNotFound},
		"malformed-key":   {"GET", "/v1/reports/not-a-hex-key", "", http.StatusBadRequest},
		"unknown-report":  {"GET", "/v1/reports/" + strings.Repeat("ab", 32), "", http.StatusNotFound},
		"wrong-verb-jobs": {"POST", "/v1/jobs/x", "", http.StatusMethodNotAllowed},
	} {
		t.Run(name, func(t *testing.T) {
			req, err := http.NewRequest(c.method, ts.URL+c.path, strings.NewReader(c.body))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != c.want {
				t.Fatalf("%s %s returned %d, want %d", c.method, c.path, resp.StatusCode, c.want)
			}
		})
	}

	// List endpoint sanity: every harness experiment is advertised.
	resp, err := http.Get(ts.URL + "/v1/experiments")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list struct {
		Experiments []string `json:"experiments"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if want := len(opgate.Experiments()) + 1; len(list.Experiments) != want {
		t.Fatalf("list advertises %d experiments, want %d", len(list.Experiments), want)
	}

	// Health endpoint stays a plain 200.
	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("healthz returned %d", hr.StatusCode)
	}
}

// TestJobCancellation: DELETE /v1/jobs/{id} cancels a queued or running
// job, which reaches the terminal "canceled" status without rendering a
// report (the satellite bugfix: jobs used to run to completion).
func TestJobCancellation(t *testing.T) {
	// One worker: the first job occupies it, so the second is reliably
	// queued or at the very start of its run when the DELETE lands.
	ts := httptest.NewServer(newServer(serverConfig{Quick: true, Workers: 1, Queue: 4}))
	t.Cleanup(ts.Close)

	first, code := submit(t, ts, `{"experiment":"fig2"}`)
	if code != http.StatusAccepted {
		t.Fatalf("first submit returned %d", code)
	}
	second, code := submit(t, ts, `{"experiment":"all"}`)
	if code != http.StatusAccepted {
		t.Fatalf("second submit returned %d", code)
	}

	req, err := http.NewRequest("DELETE", ts.URL+"/v1/jobs/"+second.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel returned %d", resp.StatusCode)
	}

	if v := awaitJob(t, ts, second.ID); v.Status != "canceled" {
		t.Fatalf("canceled job ended %q (%s)", v.Status, v.Error)
	}
	if v := awaitJob(t, ts, first.ID); v.Status != "done" {
		t.Fatalf("unrelated job ended %q (%s)", v.Status, v.Error)
	}

	// The canceled job produced no report.
	rresp, err := http.Get(ts.URL + "/v1/reports/" + second.ReportKey)
	if err != nil {
		t.Fatal(err)
	}
	rresp.Body.Close()
	if rresp.StatusCode != http.StatusNotFound {
		t.Fatalf("canceled job left a report behind (%d)", rresp.StatusCode)
	}

	// Cancelling a finished job is a harmless no-op.
	req, err = http.NewRequest("DELETE", ts.URL+"/v1/jobs/"+first.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if v := awaitJob(t, ts, first.ID); v.Status != "done" {
		t.Fatalf("done job flipped to %q after a late cancel", v.Status)
	}
}

// TestResubmitAfterCancelIsNotCoalesced: a canceled job must not swallow
// an identical resubmission — the new POST gets a fresh job that really
// runs and produces the report.
func TestResubmitAfterCancelIsNotCoalesced(t *testing.T) {
	// One worker kept busy so the canceled job is still in the pending map
	// (waiting to be retired) when the resubmission lands.
	ts := httptest.NewServer(newServer(serverConfig{Quick: true, Workers: 1, Queue: 4}))
	t.Cleanup(ts.Close)

	busy, _ := submit(t, ts, `{"experiment":"fig2"}`)
	victim, code := submit(t, ts, `{"experiment":"table1"}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit returned %d", code)
	}
	req, err := http.NewRequest("DELETE", ts.URL+"/v1/jobs/"+victim.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	redo, code := submit(t, ts, `{"experiment":"table1"}`)
	if code != http.StatusAccepted {
		t.Fatalf("resubmission coalesced onto the canceled job (code %d)", code)
	}
	if redo.ID == victim.ID {
		t.Fatal("resubmission returned the canceled job")
	}
	if redo.ReportKey != victim.ReportKey {
		t.Fatal("identical request derived a different report key")
	}
	if v := awaitJob(t, ts, redo.ID); v.Status != "done" {
		t.Fatalf("resubmitted job ended %q (%s)", v.Status, v.Error)
	}
	if v := awaitJob(t, ts, busy.ID); v.Status != "done" {
		t.Fatalf("busy job ended %q (%s)", v.Status, v.Error)
	}
	rresp, err := http.Get(ts.URL + "/v1/reports/" + redo.ReportKey)
	if err != nil {
		t.Fatal(err)
	}
	rresp.Body.Close()
	if rresp.StatusCode != http.StatusOK {
		t.Fatalf("resubmitted job produced no report (%d)", rresp.StatusCode)
	}
}

// TestQueueBound: submissions beyond the queue bound are refused with 503
// rather than accepted and forgotten.
func TestQueueBound(t *testing.T) {
	// Workers: 1 busy worker + queue of 1: the third distinct submission
	// must bounce. Use distinct thresholds so nothing coalesces.
	ts := httptest.NewServer(newServer(serverConfig{Quick: true, Workers: 1, Queue: 1}))
	t.Cleanup(ts.Close)
	codes := map[int]int{}
	ids := map[string]bool{}
	for i := 0; i < 6; i++ {
		body := fmt.Sprintf(`{"experiment":"fig2","threshold":%d}`, 30+i)
		resp, err := http.Post(ts.URL+"/v1/experiments", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		codes[resp.StatusCode]++
		if resp.StatusCode == http.StatusAccepted {
			var v client.Job
			if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
				t.Fatal(err)
			}
			ids[v.ID] = true
		} else if resp.StatusCode == http.StatusServiceUnavailable {
			// A refused submission must tell the client when to come back.
			if resp.Header.Get("Retry-After") == "" {
				t.Fatal("queue-full 503 carries no Retry-After")
			}
		}
		resp.Body.Close()
	}
	if codes[http.StatusServiceUnavailable] == 0 {
		t.Fatalf("no submission was refused: %v", codes)
	}
	for id := range ids {
		if v := awaitJob(t, ts, id); v.Status != "done" {
			t.Fatalf("accepted job %s ended %q (%s)", id, v.Status, v.Error)
		}
	}
}
