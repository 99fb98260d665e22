package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"opgate"
	"opgate/client"
)

// TestSweepLifecycle drives a threshold-sweep job end to end: submit a
// grid, await the job, and fetch the sweep document in both its text and
// canonical JSON forms — the latter byte-identical to a direct
// Session.Sweep encoding.
func TestSweepLifecycle(t *testing.T) {
	ts := newTestServer(t, nil)

	v, code := submit(t, ts, `{"experiment":"fig4","thresholds":[110,50]}`)
	if code != http.StatusAccepted {
		t.Fatalf("sweep submit returned %d", code)
	}
	// The job carries its whole definition in typed fields — what the
	// journal records and a resubmission can replay.
	if v.Experiment != "fig4" || !slices.Equal(v.Thresholds, []float64{110, 50}) || v.Threshold != 0 {
		t.Fatalf("sweep job definition = %q %v %g, want fig4 [110 50] 0", v.Experiment, v.Thresholds, v.Threshold)
	}
	done := awaitJob(t, ts, v.ID)
	if done.Status != "done" {
		t.Fatalf("sweep job ended %q (%s)", done.Status, done.Error)
	}

	// Text form: one table per threshold under a sweep header.
	resp, err := http.Get(ts.URL + "/v1/reports/" + done.ReportKey)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var text bytes.Buffer
	if _, err := text.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep report fetch returned %d: %s", resp.StatusCode, text.String())
	}
	for _, want := range []string{"==== sweep fig4", "--- threshold 110 ---", "--- threshold 50 ---"} {
		if !strings.Contains(text.String(), want) {
			t.Errorf("sweep text render is missing %q:\n%s", want, text.String())
		}
	}

	// JSON form: the canonical opgate.sweep/v1 document, byte-identical
	// to encoding a direct Session.Sweep.
	if got := reportJSON(t, ts, done.ReportKey); !bytes.Equal(got, directSweep(t, "fig4", 110, 50)) {
		t.Fatal("served sweep JSON drifted from a direct Session.Sweep's canonical encoding")
	}
}

// reportJSON fetches the stored document under key in its canonical JSON
// form.
func reportJSON(t *testing.T, ts *httptest.Server, key string) []byte {
	t.Helper()
	req, err := http.NewRequest("GET", ts.URL+"/v1/reports/"+key, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("report fetch returned %d: %s", resp.StatusCode, body)
	}
	return body
}

// directSweep is the canonical encoding of a quick Session.Sweep of id
// over thresholds — what a sweep job must serve byte for byte.
func directSweep(t *testing.T, id string, thresholds ...float64) []byte {
	t.Helper()
	sess, err := opgate.NewSession(opgate.WithQuick(true))
	if err != nil {
		t.Fatal(err)
	}
	sw, err := sess.Sweep(context.Background(), id, thresholds...)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := opgate.EncodeSweep(sw)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// TestSweepListedResubmission: a sweep job resubmitted from its listed
// definition — the job view's experiment and thresholds, as a client
// copies them — derives the same report key and is served warm.
func TestSweepListedResubmission(t *testing.T) {
	ts := newTestServer(t, nil)

	first, code := submit(t, ts, `{"experiment":"fig4","thresholds":[110,50]}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit returned %d", code)
	}
	listed := awaitJob(t, ts, first.ID)
	if listed.Status != "done" {
		t.Fatalf("sweep job ended %q (%s)", listed.Status, listed.Error)
	}

	body, err := json.Marshal(client.Request{Experiment: listed.Experiment, Thresholds: listed.Thresholds})
	if err != nil {
		t.Fatal(err)
	}
	redo, code := submit(t, ts, string(body))
	if code != http.StatusAccepted && code != http.StatusOK {
		t.Fatalf("listed-definition resubmit returned %d", code)
	}
	if redo.ReportKey != first.ReportKey {
		t.Fatalf("listed definition derived key %s, first submission %s", redo.ReportKey, first.ReportKey)
	}
	done := awaitJob(t, ts, redo.ID)
	if done.Status != "done" {
		t.Fatalf("resubmitted sweep ended %q (%s)", done.Status, done.Error)
	}
	cached := false
	for _, ev := range done.Progress {
		if strings.Contains(ev.Msg, "served from cache") {
			cached = true
		}
	}
	if !cached {
		t.Fatalf("resubmitted sweep re-rendered instead of serving warm: %+v", done.Progress)
	}
}

// TestSweepRequestValidation: malformed sweep submissions are 400s, and
// a sweep's key is distinct from any single-threshold key.
func TestSweepRequestValidation(t *testing.T) {
	ts := newTestServer(t, nil)
	for name, body := range map[string]string{
		"all-experiments":     `{"experiment":"all","thresholds":[110,50]}`,
		"both-axes":           `{"experiment":"fig4","threshold":50,"thresholds":[110,50]}`,
		"unknown-exp":         `{"experiment":"fig99","thresholds":[50]}`,
		"unknown-exp-spec":    `{"experiment":"sweep:fig4@110,50"}`, // grids ride in thresholds
		"duplicate-threshold": `{"experiment":"fig4","thresholds":[50,50]}`,
		"negative-threshold":  `{"experiment":"fig4","thresholds":[-50]}`,
	} {
		t.Run(name, func(t *testing.T) {
			if _, code := submit(t, ts, body); code != http.StatusBadRequest {
				t.Fatalf("submit %s returned %d, want 400", body, code)
			}
		})
	}

	// The sweep document address never collides with a cell address.
	sweep, code := submit(t, ts, `{"experiment":"fig4","thresholds":[50]}`)
	if code != http.StatusAccepted {
		t.Fatalf("one-point sweep returned %d", code)
	}
	single, code := submit(t, ts, `{"experiment":"fig4","threshold":50}`)
	if code != http.StatusAccepted && code != http.StatusOK {
		t.Fatalf("single submit returned %d", code)
	}
	if sweep.ReportKey == single.ReportKey {
		t.Fatal("a one-point sweep shares its report key with a plain run")
	}
	// An empty grid is no grid: the job is a plain run.
	plain, code := submit(t, ts, `{"experiment":"fig4","threshold":60,"thresholds":[]}`)
	if code != http.StatusAccepted {
		t.Fatalf("empty-grid submit returned %d", code)
	}
	for _, id := range []string{sweep.ID, single.ID, plain.ID} {
		if done := awaitJob(t, ts, id); done.Status != "done" {
			t.Fatalf("job %s ended %q (%s)", id, done.Status, done.Error)
		}
	}
}
