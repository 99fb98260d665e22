package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"opgate/client"
	"opgate/internal/harness"
)

// warmReq is the request set-up files and connection A re-submits.
var warmReq = client.Request{Experiment: "fig15", Threshold: 50}

// warmPerRound is how many warm requests connection A sends, one after
// another, while connection B's one cold request of a round runs. The
// fixed mix keeps opgated's CPU time per request independent of how the
// host schedules the two connections.
const warmPerRound = 10

// rssRounds is the round after which opgated's peak RSS is read. The
// daemon grows with every fresh threshold it serves, so reading it after
// a fixed amount of work keeps the figure independent of how many rounds
// the host's speed lets a run complete.
const rssRounds = 10

// service runs service-mix: set-up starts opgated on a fresh store and
// primes it with one cold warmReq (which files the warm key), three
// times; the last daemon serves the timed closed-loop window. A set-up's
// time is opgated's CPU time until it is primed, normalized by a pacer.
func (b *bench) service(ctx context.Context) {
	var setups []float64
	var d *daemon
	var primed []byte
	for i := 0; i < setupRepeats; i++ {
		dir := filepath.Join(b.opts.work, fmt.Sprintf("svc%d", i))
		p := startPacer()
		di, blob, err := b.startPrimed(ctx, dir)
		var cpu time.Duration
		if err == nil {
			cpu, err = di.cpu()
		}
		pacerMs := p.end()
		if err == nil {
			setups = append(setups, normalize(ms(cpu), pacerMs)/1000)
			err = checkDigest(blob, b.expect.Fig15)
		}
		b.check("set-up", err)
		if di == nil {
			continue
		}
		if i < setupRepeats-1 {
			b.check("drain", di.stop())
			removeAll(dir)
			continue
		}
		d, primed = di, blob
	}
	if d == nil {
		return
	}
	p := startPacer()
	cpu0, err := d.cpu()
	b.check("opgated CPU time", err)
	w := b.drive(ctx, d, primed, time.Duration(b.opts.seconds)*time.Second, nil)
	cpu1, err := d.cpu()
	b.check("opgated CPU time", err)
	pacerMs := p.end()
	b.check("drain", d.stop())

	ops := len(w.warm) + len(w.cold)
	cpu := ms(cpu1-cpu0) / float64(ops)
	b.add("setup_s", median(setups), "s", len(setups))
	b.add("peak_rss_mb", w.rssMB, "MB", 1)
	b.add("norm_cpu_ms", normalize(cpu, pacerMs), "ms", ops)
	b.info("cpu_ms", cpu, "ms", ops)
	// About 350 warm requests and 35 cold ones a run.
	b.latencies("", w.warm, 95)
	b.latencies("cold_", w.cold, 100)
	b.info("ops_per_s", float64(ops)/w.elapsed.Seconds(), "1/s", ops)
}

// startPrimed starts opgated as deployed for the service workload and
// files the warm key with one cold request, returning the filed report
// bytes.
func (b *bench) startPrimed(ctx context.Context, storeDir string) (*daemon, []byte, error) {
	d, err := b.startDaemon(ctx, storeDir, "-quick", "-workers", "2")
	if err != nil {
		return nil, nil, err
	}
	c, hc := newConn(d.base)
	defer hc.CloseIdleConnections()
	blob, err := request(ctx, c, warmReq, nil, 0, "prime")
	if err != nil {
		d.stop()
		return nil, nil, err
	}
	return d, blob, nil
}

// newConn returns a client holding at most one connection that never
// retries, so a 503 or transport error surfaces as a failed operation.
func newConn(base string) (*client.Client, *http.Client) {
	hc := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
	c, err := client.New(base, client.WithHTTPClient(hc), client.WithRetryPolicy(client.RetryPolicy{MaxAttempts: 1}))
	if err != nil {
		panic(err) // base is always http://127.0.0.1:port
	}
	return c, hc
}

// request is one client operation, timed from submit to report bytes:
// Submit, Follow the NDJSON stream to a terminal status, ReportBytes.
func request(ctx context.Context, c *client.Client, req client.Request, t *tracer, parent int, group string) ([]byte, error) {
	var j client.Job
	err := t.do(parent, "opgated.submit", group, func(int) (err error) {
		j, err = c.Submit(ctx, req)
		return err
	})
	if err != nil {
		return nil, err
	}
	err = t.do(parent, "opgated.follow", group, func(int) (err error) {
		j, err = c.Follow(ctx, j.ID, nil)
		return err
	})
	if err != nil {
		return nil, err
	}
	if j.Status != client.StatusDone {
		return nil, fmt.Errorf("job %s ended %s: %s", j.ID, j.Status, j.Error)
	}
	var blob []byte
	err = t.do(parent, "opgated.report", group, func(int) (err error) {
		blob, err = c.ReportBytes(ctx, j.ReportKey)
		return err
	})
	return blob, err
}

// window is the outcome of one closed-loop drive: per-class latencies in
// ms, the drive's wall time, and opgated's peak RSS after rssRounds
// rounds (or at the end, if the run completed fewer).
type window struct {
	warm, cold []float64
	elapsed    time.Duration
	rssMB      float64
}

// sent is one request's outcome: its latency in ms if it was answered,
// and its error.
type sent struct {
	what  string
	ms    float64
	timed bool
	err   error
}

// send makes one request on c inside a span named kind and verifies the
// bytes it returns. A refused or failed request has no latency; one
// answered with wrong bytes is timed and fails.
func send(ctx context.Context, c *client.Client, t *tracer, kind, group string, req client.Request, verify func([]byte) error) sent {
	s := sent{what: fmt.Sprintf("%s request (threshold %g)", kind, req.Threshold)}
	t0 := time.Now()
	var blob []byte
	s.err = t.do(0, kind, group, func(id int) (err error) {
		blob, err = request(ctx, c, req, t, id, group)
		return err
	})
	if s.err == nil {
		s.ms, s.timed = ms(time.Since(t0)), true
		s.err = verify(blob)
	}
	return s
}

// drive runs the closed loop for dur, in rounds. In each round connection
// B submits fig15 at a fresh threshold drawn from the seed and must get a
// done job whose bytes decode to one fig15 report, while connection A
// re-submits warmReq warmPerRound times and its bytes must equal those
// the cold run filed. Each connection sends its next request only after
// the previous one completes, and a round ends when both are done.
func (b *bench) drive(ctx context.Context, d *daemon, primed []byte, dur time.Duration, t *tracer) window {
	thresholds := freshThresholds(b.opts.seed)
	warmConn, warmHC := newConn(d.base)
	defer warmHC.CloseIdleConnections()
	coldConn, coldHC := newConn(d.base)
	defer coldHC.CloseIdleConnections()
	verifyWarm := func(blob []byte) error {
		if string(blob) != string(primed) {
			return errors.New("warm report bytes differ from the bytes the cold run filed")
		}
		return nil
	}
	verifyCold := func(blob []byte) error {
		reps, err := harness.DecodeReports(blob)
		if err != nil {
			return err
		}
		if len(reps) != 1 || reps[0].ID != "fig15" {
			return fmt.Errorf("cold request returned %d reports, want one fig15", len(reps))
		}
		return nil
	}

	var w window
	record := func(s sent, lat *[]float64) {
		if s.timed {
			*lat = append(*lat, s.ms)
		}
		b.check(s.what, s.err)
	}
	readRSS := func() {
		var err error
		w.rssMB, err = d.peakRSSMB()
		b.check("opgated peak RSS", err)
	}
	start := time.Now()
	rounds := 0
	for time.Since(start) < dur && ctx.Err() == nil {
		req := client.Request{Experiment: "fig15", Threshold: thresholds()}
		cold := make(chan sent, 1)
		go func(group string) {
			cold <- send(ctx, coldConn, t, "cold", group, req, verifyCold)
		}(fmt.Sprintf("cold-%d", rounds))
		for i := 0; i < warmPerRound; i++ {
			group := fmt.Sprintf("warm-%d", rounds*warmPerRound+i)
			record(send(ctx, warmConn, t, "warm", group, warmReq, verifyWarm), &w.warm)
		}
		record(<-cold, &w.cold)
		if rounds++; rounds == rssRounds {
			readRSS()
		}
	}
	w.elapsed = time.Since(start)
	if rounds < rssRounds {
		fmt.Fprintf(os.Stderr, "perfbench: only %d rounds; peak_rss_mb read at the end\n", rounds)
		readRSS()
	}
	return w
}

// freshThresholds returns a generator of distinct VRS thresholds in
// [20, 120) nJ drawn from the seed, never the warm key's 50, so every
// cold request has a report key nobody has filed.
func freshThresholds(seed uint64) func() float64 {
	rng := rand.New(rand.NewPCG(seed, 0x6f70676174656421))
	used := map[float64]bool{warmReq.Threshold: true}
	return func() float64 {
		for {
			th := math.Round((20+100*rng.Float64())*1000) / 1000
			if !used[th] {
				used[th] = true
				return th
			}
		}
	}
}

// health is the part of opgated's /healthz the traced run reads.
type health struct {
	Admission struct {
		Sheds int64 `json:"sheds"`
	} `json:"admission"`
	Serving struct {
		Coalesced int64 `json:"coalesced"`
		FromCache int64 `json:"fromCache"`
		FromPeer  int64 `json:"fromPeer"`
		Computed  int64 `json:"computed"`
	} `json:"serving"`
}

func scrapeHealth(ctx context.Context, base string) (health, error) {
	var h health
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/healthz", nil)
	if err != nil {
		return h, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return h, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return h, fmt.Errorf("/healthz: HTTP %d", resp.StatusCode)
	}
	return h, json.NewDecoder(resp.Body).Decode(&h)
}
