package client

import "time"

// Request is the POST /v1/experiments body. Experiment names an entry of
// the server's experiment list (or "all"); Synthetic/Seed/Class widen the
// workload set with generated programs, in exactly the syntax of
// ogbench's -synthetic/-seed/-class flags.
type Request struct {
	Experiment string  `json:"experiment"`
	Threshold  float64 `json:"threshold,omitempty"` // VRS threshold; 0 means the server default
	// Thresholds turns the request into a threshold sweep of Experiment
	// (which must then name a single experiment, not "all"): one job
	// evaluating the whole grid with a shared train profile per workload.
	// Exclusive with Threshold.
	Thresholds []float64 `json:"thresholds,omitempty"`
	Synthetic  string    `json:"synthetic,omitempty"`
	Seed       uint64    `json:"seed,omitempty"`
	Class      string    `json:"class,omitempty"`
	// Direct pins the job to the receiving node: a fleet member must
	// compute (or serve) it locally instead of forwarding it to the
	// ring owner. Set by opgated on peer-forwarded submissions — the
	// loop guard that makes mis-matched ring configurations degrade to
	// extra local work instead of a forwarding cycle.
	Direct bool `json:"direct,omitempty"`
}

// Job is the wire form of a server-side job, also used as the ?follow=1
// NDJSON stream frame. opgated constructs its job views from this exact
// type, so client and server cannot drift. A job's definition is the
// Request fields it was submitted with: Experiment is always a plain
// experiment ID, and a sweep job carries its grid in Thresholds (with
// Threshold 0), so re-submitting {experiment, thresholds} from a listing
// derives the same report key.
type Job struct {
	ID         string          `json:"id"`
	Experiment string          `json:"experiment"`
	Threshold  float64         `json:"threshold"`
	Thresholds []float64       `json:"thresholds,omitempty"`
	Synthetics []string        `json:"synthetics,omitempty"`
	Status     string          `json:"status"`
	ReportKey  string          `json:"report_key"`
	Error      string          `json:"error,omitempty"`
	Stack      string          `json:"stack,omitempty"` // recorded when a panic failed the job
	Created    time.Time       `json:"created"`
	Progress   []ProgressEvent `json:"progress"`
}

// ProgressEvent is one timestamped line of a job's progress log.
type ProgressEvent struct {
	Time time.Time `json:"time"`
	Msg  string    `json:"msg"`
}

// The job status state machine: queued → running → one terminal status.
//
//	done     the report was rendered (or served from cache)
//	failed   the experiment errored or panicked (Error, maybe Stack)
//	timeout  the job exceeded the server's -job-timeout deadline
//	canceled DELETE /v1/jobs/{id} stopped it
//	aborted  the server drained while the job was still queued
const (
	StatusQueued   = "queued"
	StatusRunning  = "running"
	StatusDone     = "done"
	StatusFailed   = "failed"
	StatusTimeout  = "timeout"
	StatusCanceled = "canceled"
	StatusAborted  = "aborted"
)

// TerminalStatus reports whether a job status is final. The server's
// handlers and this client agree through this one predicate.
func TerminalStatus(status string) bool {
	switch status {
	case StatusDone, StatusFailed, StatusTimeout, StatusCanceled, StatusAborted:
		return true
	}
	return false
}

// Terminal reports whether the job has reached a final status.
func (j Job) Terminal() bool { return TerminalStatus(j.Status) }
