package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"opgate"
	"opgate/client"
	"opgate/internal/journal"
	"opgate/internal/store"
)

// Crash-recovery and admission-control coverage for the journaled server:
// a restarted process re-adopts in-flight jobs under their original IDs,
// never resurrects completed work, and sheds cold submissions — not warm
// or coalesced ones — under load, with an honest Retry-After.

// openJournal opens (or reopens) the journal at path with the production
// terminal predicate.
func openJournal(t *testing.T, path string) (*journal.Journal, []journal.Record) {
	t.Helper()
	j, recs, err := journal.Open(path, 0, client.TerminalStatus, nil)
	if err != nil {
		t.Fatal(err)
	}
	return j, recs
}

// TestJournalRecoveryRequeuesInFlight is the SIGKILL story end-to-end in
// process: server A journals a job to "running" and is abandoned without
// any drain (its worker is parked forever, its journal closed, exactly
// the state a kill -9 leaves on disk); server B opens the same journal
// and store, re-adopts the job under its original ID, and finishes it —
// so a client polling the original job URL sees "done", not 404.
func TestJournalRecoveryRequeuesInFlight(t *testing.T) {
	dir := t.TempDir()
	jpath := filepath.Join(dir, "journal.log")
	stA, err := store.Open(filepath.Join(dir, "store"), 0)
	if err != nil {
		t.Fatal(err)
	}
	jnlA, recs := openJournal(t, jpath)
	if len(recs) != 0 {
		t.Fatalf("fresh journal replayed %d records", len(recs))
	}
	srvA := newServer(serverConfig{
		Quick: true, Workers: 1, Store: stA, Journal: jnlA,
		// Park every job forever: the crash happens mid-run.
		hookJobStart: func(ctx context.Context, _ *job) { <-ctx.Done() },
	})
	tsA := httptest.NewServer(srvA)
	v, code := submit(t, tsA, `{"experiment":"table1","threshold":50}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit returned %d", code)
	}
	awaitStatus(t, tsA, v.ID, "running")
	// A second job dies still queued (the only worker is parked): recovery
	// must bring back both lifecycle points.
	q, code := submit(t, tsA, `{"experiment":"table1","threshold":60}`)
	if code != http.StatusAccepted {
		t.Fatalf("queued submit returned %d", code)
	}
	// The "crash": no drain, no cancellation — just stop serving and close
	// the journal handle. The parked worker goroutine leaks for the rest
	// of the test, as a killed process's threads would.
	tsA.Close()
	jnlA.Close()

	stB, err := store.Open(filepath.Join(dir, "store"), 0)
	if err != nil {
		t.Fatal(err)
	}
	jnlB, recovered := openJournal(t, jpath)
	defer jnlB.Close()
	if len(recovered) == 0 {
		t.Fatal("journal replayed nothing after the crash")
	}
	srvB := newServer(serverConfig{
		Quick: true, Workers: 1, Store: stB, Journal: jnlB, Recovered: recovered,
	})
	tsB := httptest.NewServer(srvB)
	defer tsB.Close()

	got := awaitJob(t, tsB, v.ID)
	if got.Status != "done" {
		t.Fatalf("recovered job %s ended %q (%s), want done", v.ID, got.Status, got.Error)
	}
	if got.ID != v.ID || got.ReportKey != v.ReportKey {
		t.Fatalf("recovered job identity drifted: %+v vs %+v", got, v)
	}
	if g := awaitJob(t, tsB, q.ID); g.Status != "done" {
		t.Fatalf("job killed while queued ended %q (%s), want done", g.Status, g.Error)
	}
	resp, err := http.Get(tsB.URL + "/v1/reports/" + got.ReportKey)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("report fetch after recovery returned %d", resp.StatusCode)
	}

	// New submissions must not collide with recovered IDs: the sequence
	// resumed above everything the journal named.
	w, code := submit(t, tsB, `{"experiment":"fig2","threshold":50}`)
	if code != http.StatusAccepted {
		t.Fatalf("post-recovery submit returned %d", code)
	}
	if w.ID == v.ID {
		t.Fatalf("post-recovery submission reused recovered job ID %s", v.ID)
	}
	// Let it finish before the deferred journal close, so no transition
	// races the teardown.
	awaitJob(t, tsB, w.ID)
}

// TestRecoveryNeverResurrectsCompletedJob: a journal whose tail lost the
// "done" record (torn by the crash) still must not re-run the job when
// the content-addressed report already proves completion — the job is
// marked done at boot without ever reaching a worker.
func TestRecoveryNeverResurrectsCompletedJob(t *testing.T) {
	dir := t.TempDir()

	// A first, journal-less server produces the genuine report.
	st, err := store.Open(filepath.Join(dir, "store"), 0)
	if err != nil {
		t.Fatal(err)
	}
	ts := newTestServer(t, st)
	v, code := submit(t, ts, `{"experiment":"table1","threshold":50}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit returned %d", code)
	}
	done := awaitJob(t, ts, v.ID)
	if done.Status != "done" {
		t.Fatalf("seed job ended %q", done.Status)
	}

	// Hand-write the crashed process's journal: the job got to "running",
	// the "done" record never made it to disk.
	jpath := filepath.Join(dir, "journal.log")
	jnl, _ := openJournal(t, jpath)
	if _, err := jnl.Append(journal.Record{
		Job: "job-000042", Status: "running",
		Experiment: done.Experiment, Threshold: done.Threshold,
		Synthetics: done.Synthetics, ReportKey: done.ReportKey,
	}); err != nil {
		t.Fatal(err)
	}
	jnl.Close()

	jnl2, recovered := openJournal(t, jpath)
	defer jnl2.Close()
	srv := newServer(serverConfig{
		Quick: true, Workers: 1, Store: st, Journal: jnl2, Recovered: recovered,
		hookJobStart: func(_ context.Context, j *job) {
			t.Errorf("job %s reached a worker; completed work was resurrected", j.id)
		},
	})
	ts2 := httptest.NewServer(srv)
	defer ts2.Close()

	got := awaitJob(t, ts2, "job-000042")
	if got.Status != "done" {
		t.Fatalf("recovered job ended %q, want done without re-running", got.Status)
	}
	found := false
	for _, p := range got.Progress {
		if p.Msg == "recovered: report already in store" {
			found = true
		}
	}
	if !found {
		t.Fatalf("job progress does not say it was recovered from the store: %+v", got.Progress)
	}
}

// restartOn boots a server over the journal at jpath, as a process
// restarted after a crash does. check, when set, sees the replayed
// records first.
func restartOn(t *testing.T, jpath string, check func([]journal.Record)) *httptest.Server {
	t.Helper()
	jnl, recovered := openJournal(t, jpath)
	t.Cleanup(func() { jnl.Close() })
	if check != nil {
		check(recovered)
	}
	ts := httptest.NewServer(newServer(serverConfig{
		Quick: true, Workers: 1, Journal: jnl, Recovered: recovered,
	}))
	t.Cleanup(ts.Close)
	return ts
}

// TestRecoveryRerunsTypedSweep: a sweep job that dies queued is
// journaled with its grid in the record's typed field, re-adopted after a
// restart, runs, and serves exactly the document a direct Session.Sweep
// encodes.
func TestRecoveryRerunsTypedSweep(t *testing.T) {
	jpath := filepath.Join(t.TempDir(), "journal.log")
	jnlA, _ := openJournal(t, jpath)
	tsA := httptest.NewServer(newServer(serverConfig{
		Quick: true, Workers: 1, Journal: jnlA,
		hookJobStart: func(ctx context.Context, _ *job) { <-ctx.Done() },
	}))
	// A plain job parks the only worker, so the sweep is still queued
	// when the process dies.
	park, code := submit(t, tsA, `{"experiment":"table1","threshold":50}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit returned %d", code)
	}
	awaitStatus(t, tsA, park.ID, "running")
	v, code := submit(t, tsA, `{"experiment":"fig4","thresholds":[110,50]}`)
	if code != http.StatusAccepted {
		t.Fatalf("sweep submit returned %d", code)
	}
	tsA.Close()
	jnlA.Close()

	ts := restartOn(t, jpath, func(recs []journal.Record) {
		last := journal.Reduce(recs)[1]
		if last.Job != v.ID || last.Status != client.StatusQueued || last.Experiment != "fig4" ||
			!slices.Equal(last.Thresholds, []float64{110, 50}) {
			t.Fatalf("sweep journaled as %+v", last)
		}
	})
	got := awaitJob(t, ts, v.ID)
	if got.Status != client.StatusDone {
		t.Fatalf("recovered sweep ended %q (%s), want done", got.Status, got.Error)
	}
	if got.Experiment != "fig4" || !slices.Equal(got.Thresholds, []float64{110, 50}) || got.ReportKey != v.ReportKey {
		t.Fatalf("recovered sweep definition drifted: %+v vs %+v", got, v)
	}
	if !bytes.Equal(reportJSON(t, ts, got.ReportKey), directSweep(t, "fig4", 110, 50)) {
		t.Fatal("recovered sweep's document drifted from a direct Session.Sweep")
	}
	awaitJob(t, ts, park.ID) // no transition may race the journal's close
}

// TestRecoveryFailsLegacySweepSpec: a sweep record journaled by a build
// that packed the grid into the experiment field ("sweep:fig4@110,50",
// no typed grid) still decodes, and its job fails with the
// unknown-experiment error at boot instead of hanging or panicking.
// In-flight sweep jobs therefore do not survive that upgrade.
func TestRecoveryFailsLegacySweepSpec(t *testing.T) {
	names, err := opgate.ExpandSynthetics("", 1, "small", false)
	if err != nil {
		t.Fatal(err)
	}
	legacy := journal.Record{
		Job: "job-000007", Status: client.StatusQueued, Experiment: "sweep:fig4@110,50", Synthetics: names,
		ReportKey: string(store.SweepKey("fig4", true, []float64{110, 50}, names, store.SelfIdentity())),
	}
	jpath := filepath.Join(t.TempDir(), "journal.log")
	jnl, _ := openJournal(t, jpath)
	if _, err := jnl.Append(legacy); err != nil {
		t.Fatal(err)
	}
	jnl.Close()

	ts := restartOn(t, jpath, func(recs []journal.Record) {
		if len(recs) != 1 {
			t.Fatalf("journal replayed %d records, want 1", len(recs))
		}
		r := recs[0]
		r.Seq, r.Time = 0, 0
		if !reflect.DeepEqual(r, legacy) {
			t.Fatalf("legacy record replayed as %+v", r)
		}
	})
	got := awaitJob(t, ts, legacy.Job)
	if want := `unknown experiment "sweep:fig4@110,50"`; got.Status != client.StatusFailed || got.Error != want {
		t.Fatalf("legacy sweep job ended %q (%s), want failed (%s)", got.Status, got.Error, want)
	}
}

// shedConfig builds a one-worker server whose worker parks forever, so
// queue depth is fully controlled by the test. A queue of 2 puts the shed
// watermark (3/4 of the queue, at least 1) at depth 1 and leaves one slot
// for the warm submission.
func shedConfig(st *store.Store) serverConfig {
	return serverConfig{
		Quick: true, Workers: 1, Queue: 2, Store: st,
		hookJobStart: func(ctx context.Context, _ *job) { <-ctx.Done() },
	}
}

// TestAdmissionShedsColdKeepsWarm: at the shed watermark a cold
// submission bounces with 503 and a Retry-After, while a warm one (report
// already in the store) and a coalescing twin are still admitted.
func TestAdmissionShedsColdKeepsWarm(t *testing.T) {
	st, err := store.Open(filepath.Join(t.TempDir(), "store"), 0)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(newServer(shedConfig(st)))
	defer ts.Close()

	// Job 1 occupies the parked worker; job 2 holds queue depth at 1.
	if _, code := submit(t, ts, `{"experiment":"fig2","threshold":50}`); code != http.StatusAccepted {
		t.Fatalf("first submit returned %d", code)
	}
	queued, code := submit(t, ts, `{"experiment":"fig2","threshold":60}`)
	if code != http.StatusAccepted {
		t.Fatalf("second submit returned %d", code)
	}

	// Cold at the watermark: shed, with an honest hint.
	resp, err := http.Post(ts.URL+"/v1/experiments", "application/json",
		strings.NewReader(`{"experiment":"fig2","threshold":70}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("cold submission at watermark returned %d: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("shed response has no Retry-After")
	}

	// Warm at the watermark: its report is one read away, always admitted.
	names, err := opgate.ExpandSynthetics("", 1, "small", false)
	if err != nil {
		t.Fatal(err)
	}
	key := store.ReportKey("fig2", true, 80, names, store.SelfIdentity())
	if err := st.Put(key, []byte("cached report bytes")); err != nil {
		t.Fatal(err)
	}
	if _, code := submit(t, ts, `{"experiment":"fig2","threshold":80}`); code != http.StatusAccepted {
		t.Fatalf("warm submission at watermark returned %d", code)
	}

	// Coalescing twin of the queued job: admitted onto the same job.
	twin, code := submit(t, ts, `{"experiment":"fig2","threshold":60}`)
	if code != http.StatusOK || twin.ID != queued.ID {
		t.Fatalf("coalescing twin got %d / %s, want 200 / %s", code, twin.ID, queued.ID)
	}

	// The shed shows up in the health counters.
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Admission struct {
			Sheds int64 `json:"sheds"`
		} `json:"admission"`
	}
	err = json.NewDecoder(hresp.Body).Decode(&health)
	hresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if health.Admission.Sheds < 1 {
		t.Fatalf("healthz reports %d sheds, want >= 1", health.Admission.Sheds)
	}
}
