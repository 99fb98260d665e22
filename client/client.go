// Package client is the Go client for the opgated simulation service: a
// thin, dependency-free HTTP wrapper over the job API (submit, poll,
// follow, cancel, fetch reports) with the failure semantics a production
// caller needs baked in — context-aware exponential backoff with jitter,
// Retry-After honored on 503 (the server's queue-full and drain
// responses), idempotent GET/DELETE calls retried across transient 5xx
// and transport faults, and reports decoded through the opgate canonical
// codec.
//
//	c, _ := client.New("http://localhost:8080")
//	res, err := c.Run(ctx, client.Request{Experiment: "fig8"})
//	// res.Reports for single-threshold requests, res.Sweep for grids.
//
// POST submissions are deliberately retried only on 503: the server
// coalesces identical live submissions onto one job, so a replay after a
// refused attempt is safe, but a POST that died mid-flight with an
// unknown outcome is not replayed on other errors.
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"strconv"
	"strings"
	"time"

	"opgate"
)

// RetryPolicy shapes the client's backoff. The zero value selects the
// defaults noted on each field.
type RetryPolicy struct {
	MaxAttempts int           // attempts per call, including the first (default 5)
	BaseDelay   time.Duration // backoff before the second attempt (default 100ms)
	MaxDelay    time.Duration // backoff ceiling; Retry-After may exceed it (default 5s)
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 5
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 100 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 5 * time.Second
	}
	return p
}

// delay computes the backoff before attempt n (1-based: the wait after
// the nth attempt failed): exponential growth capped at MaxDelay, with
// equal jitter so a retrying fleet spreads out instead of thundering.
func (p RetryPolicy) delay(n int) time.Duration {
	d := p.BaseDelay << (n - 1)
	if d > p.MaxDelay || d <= 0 { // <= 0: shift overflow
		d = p.MaxDelay
	}
	return d/2 + time.Duration(rand.Int64N(int64(d/2)+1))
}

// APIError is a non-2xx response from the service, after retries.
type APIError struct {
	Status  int    // HTTP status code
	Message string // the server's {"error": ...} body, when present
}

func (e *APIError) Error() string {
	if e.Message == "" {
		return fmt.Sprintf("opgated: HTTP %d", e.Status)
	}
	return fmt.Sprintf("opgated: HTTP %d: %s", e.Status, e.Message)
}

// RetryAfterError is an *APIError whose response carried a parseable
// Retry-After header — the server's own estimate (from its observed job
// service times) of when capacity frees up. Callers implementing their
// own scheduling can honor the hint:
//
//	var ra *client.RetryAfterError
//	if errors.As(err, &ra) { time.Sleep(ra.RetryAfter) }
//
// errors.As with **APIError still matches (RetryAfterError unwraps to
// its embedded APIError), so existing status-code handling is unchanged.
type RetryAfterError struct {
	APIError
	RetryAfter time.Duration // the server's backoff hint
}

func (e *RetryAfterError) Error() string {
	return fmt.Sprintf("%s (retry after %s)", e.APIError.Error(), e.RetryAfter)
}

func (e *RetryAfterError) Unwrap() error { return &e.APIError }

// Client calls one opgated base URL. It is safe for concurrent use.
type Client struct {
	base   string
	hc     *http.Client
	policy RetryPolicy
}

// Option configures a Client at construction.
type Option func(*Client)

// WithHTTPClient substitutes the underlying *http.Client (timeouts,
// transports, instrumentation). The default is http.DefaultClient.
func WithHTTPClient(hc *http.Client) Option { return func(c *Client) { c.hc = hc } }

// WithRetryPolicy replaces the default backoff shape.
func WithRetryPolicy(p RetryPolicy) Option { return func(c *Client) { c.policy = p } }

// New builds a client for the service at baseURL (scheme://host[:port],
// with or without a trailing slash).
func New(baseURL string, opts ...Option) (*Client, error) {
	base := strings.TrimRight(baseURL, "/")
	if !strings.Contains(base, "://") {
		return nil, fmt.Errorf("client: base URL %q has no scheme", baseURL)
	}
	c := &Client{base: base, hc: http.DefaultClient}
	for _, opt := range opts {
		opt(c)
	}
	c.policy = c.policy.withDefaults()
	return c, nil
}

// retryAfter parses a Retry-After header: delta-seconds or an HTTP date.
// ok is false when the header is absent or unparseable.
func retryAfter(resp *http.Response) (time.Duration, bool) {
	v := resp.Header.Get("Retry-After")
	if v == "" {
		return 0, false
	}
	if secs, err := strconv.Atoi(v); err == nil && secs >= 0 {
		return time.Duration(secs) * time.Second, true
	}
	if at, err := http.ParseTime(v); err == nil {
		return max(0, time.Until(at)), true
	}
	return 0, false
}

// sleep waits for d or until ctx is done, whichever comes first.
func sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// retryableStatus reports whether a response status is worth another
// attempt for an idempotent call: transient server-side trouble.
func retryableStatus(status int) bool {
	return status == http.StatusServiceUnavailable ||
		status == http.StatusTooManyRequests ||
		status == http.StatusBadGateway ||
		status == http.StatusGatewayTimeout ||
		status == http.StatusInternalServerError
}

// do runs one API call with the retry loop: body is re-sent verbatim on
// every attempt, transport errors retry only when idempotent is set, and
// response statuses retry per retryStatus (nil means never). Every
// attempt asks for JSON, the form the reports endpoint negotiates. The
// caller owns the returned body.
func (c *Client) do(ctx context.Context, method, path string, body []byte, idempotent bool, retryStatus func(int) bool) (*http.Response, error) {
	var lastErr error
	for attempt := 1; ; attempt++ {
		req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		if body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		req.Header.Set("Accept", "application/json")
		resp, err := c.hc.Do(req)
		var wait time.Duration
		switch {
		case err != nil:
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			if !idempotent {
				return nil, err
			}
			lastErr = err
			wait = c.policy.delay(attempt)
		case retryStatus != nil && retryStatus(resp.StatusCode):
			lastErr = responseError(resp) // drains and closes the body
			wait = c.policy.delay(attempt)
			// A server-stated Retry-After overrides the computed backoff
			// in both directions: it knows its own drain and queue state.
			if ra, ok := retryAfter(resp); ok {
				wait = ra
			}
		default:
			return resp, nil
		}
		if attempt >= c.policy.MaxAttempts {
			return nil, lastErr
		}
		if err := sleep(ctx, wait); err != nil {
			return nil, errors.Join(err, lastErr)
		}
	}
}

// responseError drains a non-2xx response into an *APIError — or a
// *RetryAfterError when the response carried a usable Retry-After hint.
func responseError(resp *http.Response) error {
	defer resp.Body.Close()
	var payload struct {
		Error string `json:"error"`
	}
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	if err := json.Unmarshal(body, &payload); err != nil || payload.Error == "" {
		payload.Error = strings.TrimSpace(string(body))
	}
	apiErr := APIError{Status: resp.StatusCode, Message: payload.Error}
	if ra, ok := retryAfter(resp); ok {
		return &RetryAfterError{APIError: apiErr, RetryAfter: ra}
	}
	return &apiErr
}

// decodeInto decodes a 2xx JSON response body; any other status becomes
// an *APIError.
func decodeInto(resp *http.Response, v any) error {
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return responseError(resp)
	}
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(v)
}

// Submit enqueues an experiment request and returns the (possibly
// coalesced) job. Refused submissions — 503 from a full queue or a
// draining server — are retried with the server's Retry-After hint.
func (c *Client) Submit(ctx context.Context, req Request) (Job, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return Job{}, err
	}
	resp, err := c.do(ctx, http.MethodPost, "/v1/experiments", body, false,
		func(status int) bool { return status == http.StatusServiceUnavailable })
	if err != nil {
		return Job{}, err
	}
	var j Job
	return j, decodeInto(resp, &j)
}

// Job fetches a job snapshot; transient failures are retried.
func (c *Client) Job(ctx context.Context, id string) (Job, error) {
	resp, err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id, nil, true, retryableStatus)
	if err != nil {
		return Job{}, err
	}
	var j Job
	return j, decodeInto(resp, &j)
}

// Cancel asks the server to cancel a job (idempotent; retried).
func (c *Client) Cancel(ctx context.Context, id string) (Job, error) {
	resp, err := c.do(ctx, http.MethodDelete, "/v1/jobs/"+id, nil, true, retryableStatus)
	if err != nil {
		return Job{}, err
	}
	var j Job
	return j, decodeInto(resp, &j)
}

// Wait polls a job until it reaches a terminal status (or ctx ends),
// backing off from quick probes to a steady cadence. When a job the
// client has already observed turns 404 — a server restart that lost the
// job record (no journal, or a torn one) — Wait returns the last-known
// snapshot alongside the error, so the caller still holds the report key
// and can check the content-addressed store (Run does exactly that).
func (c *Client) Wait(ctx context.Context, id string) (Job, error) {
	interval := 25 * time.Millisecond
	var last Job
	for {
		j, err := c.Job(ctx, id)
		if err != nil {
			return last, err
		}
		last = j
		if j.Terminal() {
			return j, nil
		}
		if err := sleep(ctx, interval); err != nil {
			return j, err
		}
		interval = min(2*interval, time.Second)
	}
}

// Follow streams a job's NDJSON progress frames, invoking fn (when
// non-nil) per frame, until the job turns terminal. A dropped stream is
// transparently re-followed — the follow GET is idempotent — with the
// frames already seen suppressed, so fn observes each progress event once.
func (c *Client) Follow(ctx context.Context, id string, fn func(Job) error) (Job, error) {
	seen := 0
	var last Job
	for attempt := 1; ; attempt++ {
		resp, err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id+"?follow=1", nil, true, retryableStatus)
		if err != nil {
			return last, err
		}
		if resp.StatusCode != http.StatusOK {
			return last, responseError(resp)
		}
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		streamed := 0
		for sc.Scan() {
			var frame Job
			if err := json.Unmarshal(sc.Bytes(), &frame); err != nil {
				resp.Body.Close()
				return last, fmt.Errorf("client: bad follow frame: %w", err)
			}
			last = frame
			streamed++
			if streamed <= seen {
				continue // replayed on reconnect; already delivered
			}
			seen = streamed
			attempt = 1 // live progress resets the reconnect budget
			if fn != nil {
				if err := fn(frame); err != nil {
					resp.Body.Close()
					return last, err
				}
			}
			if frame.Terminal() {
				resp.Body.Close()
				return last, nil
			}
		}
		resp.Body.Close()
		if last.Terminal() {
			return last, nil
		}
		if err := ctx.Err(); err != nil {
			return last, err
		}
		if attempt >= c.policy.MaxAttempts {
			if err := sc.Err(); err != nil {
				return last, fmt.Errorf("client: follow stream: %w", err)
			}
			return last, fmt.Errorf("client: follow stream ended before job %s turned terminal", id)
		}
		if err := sleep(ctx, c.policy.delay(attempt)); err != nil {
			return last, err
		}
	}
}

// ReportBytes fetches the canonical encoded document stored under a
// report key (Job.ReportKey) — the exact bytes the server's store holds,
// whatever their schema; transient failures are retried. Reports and
// Sweep layer the two canonical codecs on top; ReportBytes itself is the
// byte-identity path (fleet forwarding replicates documents through it
// so no re-encode can perturb them).
func (c *Client) ReportBytes(ctx context.Context, key string) ([]byte, error) {
	resp, err := c.do(ctx, http.MethodGet, "/v1/reports/"+key, nil, true, retryableStatus)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, responseError(resp)
	}
	defer resp.Body.Close()
	return io.ReadAll(resp.Body)
}

// Reports fetches and decodes the canonical report sequence stored under
// a report key (Job.ReportKey); transient failures are retried. A key
// holding a sweep document fails to decode here — use Sweep (or Run,
// which picks the codec by schema).
func (c *Client) Reports(ctx context.Context, key string) ([]*opgate.Report, error) {
	blob, err := c.ReportBytes(ctx, key)
	if err != nil {
		return nil, err
	}
	return opgate.DecodeReports(blob)
}

// Sweep fetches and decodes the threshold-sweep document stored under a
// sweep key (the ReportKey of a job submitted with Thresholds);
// transient failures are retried.
func (c *Client) Sweep(ctx context.Context, key string) (*opgate.SweepReport, error) {
	blob, err := c.ReportBytes(ctx, key)
	if err != nil {
		return nil, err
	}
	return opgate.DecodeSweep(blob)
}

// Result is a completed Run: the terminal job snapshot plus the decoded
// document under its report key — Reports for single-threshold requests,
// Sweep for requests carrying a Thresholds grid. Exactly one of the two
// is non-nil.
type Result struct {
	Job     Job
	Reports []*opgate.Report    // "opgate.reports/v1" documents
	Sweep   *opgate.SweepReport // "opgate.sweep/v1" documents
}

// decodeResult picks the canonical codec by schema: the reports codec
// first (the overwhelmingly common case), then the sweep codec.
func decodeResult(blob []byte) (*Result, error) {
	if reports, err := opgate.DecodeReports(blob); err == nil {
		return &Result{Reports: reports}, nil
	}
	sweep, err := opgate.DecodeSweep(blob)
	if err != nil {
		return nil, fmt.Errorf("client: report document matches no known schema: %w", err)
	}
	return &Result{Sweep: sweep}, nil
}

// Run is the whole round trip: submit, wait for a terminal status, and
// fetch the decoded result — Result.Reports for a single-threshold
// request, Result.Sweep for a Thresholds grid. A job that ends any way
// but "done" is an error naming the terminal status (and the server's
// recorded error).
//
// Run survives a full server restart: if the job vanishes mid-wait (404
// from a process that restarted without re-adopting it), Run falls back
// to fetching the report under the submission's content-addressed key —
// a server that finished the work before dying, or redid it after, still
// answers, and only a restart that genuinely lost the work surfaces an
// error.
func (c *Client) Run(ctx context.Context, req Request) (*Result, error) {
	j, err := c.Submit(ctx, req)
	if err != nil {
		return nil, err
	}
	key := j.ReportKey
	j, err = c.Wait(ctx, j.ID)
	if err != nil {
		var apiErr *APIError
		if errors.As(err, &apiErr) && apiErr.Status == http.StatusNotFound && key != "" {
			if blob, rerr := c.ReportBytes(ctx, key); rerr == nil {
				if res, derr := decodeResult(blob); derr == nil {
					res.Job = j
					return res, nil
				}
			}
		}
		return nil, err
	}
	if j.Status != StatusDone {
		if j.Error != "" {
			return nil, fmt.Errorf("client: job %s ended %s: %s", j.ID, j.Status, j.Error)
		}
		return nil, fmt.Errorf("client: job %s ended %s", j.ID, j.Status)
	}
	blob, err := c.ReportBytes(ctx, j.ReportKey)
	if err != nil {
		return nil, err
	}
	res, err := decodeResult(blob)
	if err != nil {
		return nil, err
	}
	res.Job = j
	return res, nil
}
