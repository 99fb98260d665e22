package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"opgate"
	"opgate/client"
	"opgate/internal/store"
)

// newRecordedJob builds a queued fig2 job on s whose journal hook records
// every status it is handed, and journals the submission's "queued"
// record. The hook runs under j.mu; read the slice only once every
// goroutine touching j has finished.
func newRecordedJob(s *server, id string, key store.Key) (*job, *[]string) {
	j := s.newJob(client.Job{
		ID:         id,
		Experiment: "fig2",
		Threshold:  opgate.DefaultThreshold,
		ReportKey:  string(key),
		Status:     client.StatusQueued,
		Created:    time.Now(),
	}, client.StatusQueued)
	journaled := new([]string)
	j.onEvent = func(status, _ string) { *journaled = append(*journaled, status) }
	j.journalInitial()
	return j, journaled
}

// TestLifecycleCancelBeforeStart pins the interleaving in which a DELETE
// lands between runJob's context check and its start: the job is queued,
// the cancel makes it terminal, and only then does the worker reach the
// start transition — for a warm job whose report is already cached.
// Canceled is terminal, so the worker must neither start nor finish the
// job, and the journal must hold nothing after the cancel: a record after
// it would let a crash re-enqueue a job the client canceled.
func TestLifecycleCancelBeforeStart(t *testing.T) {
	s := newServer(serverConfig{Quick: true, Workers: 1})
	key := store.ReportKey("fig2", true, opgate.DefaultThreshold, nil, store.SelfIdentity())
	s.putReport(key, []byte(`{}`)) // the warm finish the worker would serve
	j, journaled := newRecordedJob(s, "job-000001", key)
	s.mu.Lock()
	s.jobs[j.id] = j
	s.mu.Unlock()

	// The worker's context check has already passed, so the DELETE's
	// context cancel is not visible to it: hold the context open while
	// the DELETE applies its status change.
	cancel := j.cancel
	j.cancel = func() {}
	rr := httptest.NewRecorder()
	s.ServeHTTP(rr, httptest.NewRequest(http.MethodDelete, "/v1/jobs/"+j.id, nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("DELETE returned %d", rr.Code)
	}
	s.runJob(j)
	cancel()

	if v := j.view(); v.Status != client.StatusCanceled {
		t.Fatalf("job ended %q, want canceled (progress %v)", v.Status, v.Progress)
	}
	if want := []string{client.StatusQueued, client.StatusCanceled}; !slices.Equal(*journaled, want) {
		t.Fatalf("journal saw %v, want %v", *journaled, want)
	}
	if n := s.srvFromCache.Load(); n != 0 {
		t.Fatalf("a canceled job was served from cache (%d)", n)
	}
}

// lifecycleOps are the status changes the server applies to a job, each
// as its call site makes it: the worker's start and finish, finishErr for
// every error class, a DELETE, a drain abort and a recovered panic.
var lifecycleOps = []struct {
	name  string
	apply func(*job)
}{
	{"start", func(j *job) {
		j.transition(client.StatusRunning, "", client.StatusRunning, client.StatusQueued)
	}},
	{"finish", func(j *job) { j.transition(client.StatusDone, "", client.StatusDone) }},
	{"finishErr(canceled)", func(j *job) { j.finishErr(context.Canceled) }},
	{"finishErr(timeout)", func(j *job) { j.finishErr(context.DeadlineExceeded) }},
	{"finishErr(failed)", func(j *job) { j.finishErr(errors.New("boom")) }},
	{"cancel", func(j *job) {
		j.cancel()
		j.transition(client.StatusCanceled, "", client.StatusCanceled, client.StatusQueued)
	}},
	{"abort", func(j *job) {
		j.transition(client.StatusAborted, "server draining", "aborted: server draining")
	}},
	{"panic", func(j *job) { j.failPanic("boom", debug.Stack()) }},
}

// TestLifecycleConcurrentTransitions is a seeded property test of the job
// state machine. Each seed draws a batch of lifecycle operations (repeats
// allowed) and races them on one freshly queued job; whatever the
// schedule, the journal and the job record must agree:
//   - the journal sees "queued" first, and "running" only right after it;
//   - it sees at most one terminal record, and nothing after it;
//   - view().Status is the last journaled status, with one progress line
//     per journaled record;
//   - a stack is recorded exactly when a panic failed the job.
//
// Run it under -race: the operations share nothing but the job.
func TestLifecycleConcurrentTransitions(t *testing.T) {
	s := &server{}
	for seed := uint64(1); seed <= 1000; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0x0a7e))
		batch := make([]int, 1+rng.IntN(2*len(lifecycleOps)))
		names := make([]string, len(batch))
		for i := range batch {
			batch[i] = rng.IntN(len(lifecycleOps))
			names[i] = lifecycleOps[batch[i]].name
		}
		j, journaled := newRecordedJob(s, fmt.Sprintf("job-%06d", seed), "")
		start := make(chan struct{})
		var wg sync.WaitGroup
		for _, op := range batch {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				lifecycleOps[op].apply(j)
			}()
		}
		close(start)
		wg.Wait()

		got := *journaled
		fail := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("seed %d, ops %v: journal %v: %s", seed, names, got, fmt.Sprintf(format, args...))
		}
		if len(got) == 0 || got[0] != client.StatusQueued {
			fail("first record is not queued")
		}
		for i, st := range got {
			if st == client.StatusRunning && i != 1 {
				fail("running at position %d", i)
			}
			if client.TerminalStatus(st) && i != len(got)-1 {
				fail("terminal %q is followed by another record", st)
			}
		}
		v := j.view()
		if last := got[len(got)-1]; v.Status != last {
			fail("view status %q, last journaled %q", v.Status, last)
		}
		if len(v.Progress) != len(got) {
			fail("%d progress lines for %d journaled records", len(v.Progress), len(got))
		}
		if panicked := strings.HasPrefix(v.Error, "panic: "); panicked != (v.Stack != "") || panicked && v.Status != client.StatusFailed {
			fail("status %q, error %q, stack recorded %v", v.Status, v.Error, v.Stack != "")
		}
	}
}
