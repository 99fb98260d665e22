// Command opgated serves the paper's experiment pipeline over HTTP: a
// long-running simulation service with a bounded worker pool, shared
// memoized suites, and (with -store) a persistent content-addressed
// trace/report store, so repeated and concurrent requests re-emulate
// nothing already seen.
//
//	opgated -addr :8080 -store /var/cache/opgate -workers 4 -quick \
//	        -job-timeout 10m -drain-timeout 30s
//
// Durability: with -journal (default "auto": <store>/journal.log whenever
// -store is set, disabled otherwise; "off" disables, any other value is
// the journal file path) every job status transition is appended to a
// CRC-framed, fsynced, crash-safe journal. At boot the journal is
// replayed: jobs that were queued or running when the process died —
// SIGKILL included — are re-adopted under their original job IDs, so a
// client's Wait/Follow against the restarted process finds its job; jobs
// whose report already landed in the content-addressed store are marked
// done without re-running; terminal jobs reappear as visible history. The
// journal compacts itself once it outgrows a fixed budget, keeping only
// jobs that are still in flight.
//
// Admission control: a submission whose report already exists (in cache
// or store) is always admitted — serving it is one read. Cold
// submissions, which buy real emulation work, are shed with 503 once the
// queue depth reaches 3/4 of -queue. The Retry-After on a shed or
// queue-full response is derived from observed job service times, not a
// constant.
//
// Fleet: with -peers (the comma-separated base URLs of every member,
// this node included) and -self (this node's URL as it appears there),
// the node joins a coordinator-free ring. Report keys are routed by
// consistent hashing; a submission whose key owns on a peer is
// satisfied from that peer's store or forwarded there (the "direct"
// request field pins a forwarded job to its receiver), and any peer
// failure — down, draining, version-skewed — falls back to local
// compute with no request error. The node's store becomes two tiers:
// the local directory in front, ring peers behind (read-through,
// async write-back). All members must run the same -peers list; ring
// membership, per-peer health, and forwarding counters appear under
// "fleet" in /healthz. cmd/ogload load-tests a node or fleet and
// scripts/fleet_smoke.sh holds a live 2-node ring to the contract.
//
// API (JSON unless noted):
//
//	POST   /v1/experiments    {"experiment":"fig8","threshold":50,
//	                           "synthetic":"narrow,pointer","seed":7}
//	                          → 202 + job; identical in-flight requests
//	                          coalesce onto one job (200); 503 +
//	                          Retry-After when the queue is full or the
//	                          server is draining. {"experiment":"fig4",
//	                          "thresholds":[110,50]} is one sweep job;
//	                          its view lists the same two fields
//	GET    /v1/experiments    list runnable experiment IDs and titles
//	GET    /v1/jobs/{id}      job snapshot; ?follow=1 streams NDJSON
//	                          progress frames until the job finishes
//	                          (the stream ends promptly if the client
//	                          disconnects)
//	DELETE /v1/jobs/{id}      cancel a queued or running job: the
//	                          per-workload fan-out stops mid-suite and
//	                          the job reports status "canceled"
//	GET    /v1/reports/{key}  the report sequence from the store/cache:
//	                          text/plain by default, the canonical
//	                          structured JSON (schema opgate.reports/v1)
//	                          under Accept: application/json
//	GET    /v1/objects/{key}  raw object bytes from this node's LOCAL
//	                          store tier (404 on miss); PUT stores,
//	                          DELETE drops — the fleet replication API,
//	                          deliberately never consulting peers so
//	                          object traffic terminates in one hop
//	GET    /healthz           liveness + job, store, serving-path, and
//	                          fleet counters
//	GET    /readyz            readiness: 503 the moment a drain begins
//
// Failure semantics: jobs run under a deadline (-job-timeout, terminal
// status "timeout"), a panicking job fails alone ("failed", stack in the
// job record) without taking the worker pool down, and SIGTERM/SIGINT
// triggers a graceful drain — new submissions are refused, running jobs
// get -drain-timeout to finish (then are canceled), still-queued jobs
// turn terminal with status "aborted", and the process exits 0 on a
// clean drain. A SIGKILL is covered by the journal (above): the next
// boot re-adopts whatever was in flight. The companion Go client
// (package opgate/client) wraps this API with retries, Retry-After-aware
// backoff, and a report-store fallback that survives a server restart.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"opgate/client"
	"opgate/internal/journal"
	"opgate/internal/store"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	quick := flag.Bool("quick", false, "evaluate on train inputs (faster)")
	workers := flag.Int("workers", 2, "concurrent experiment jobs")
	queue := flag.Int("queue", 256, "queued-job bound (excess submissions get 503)")
	storeDir := flag.String("store", "", "persistent trace/report store directory")
	storeLimit := flag.String("store-limit", "2GiB", "store size budget for -store, e.g. 256MiB, 2GiB, or bytes (0 = unlimited)")
	journalPath := flag.String("journal", "auto", "durable job journal: a file path, \"auto\" (<store>/journal.log when -store is set), or \"off\"")
	jobTimeout := flag.Duration("job-timeout", 0, "per-job deadline once running (terminal status \"timeout\"; 0 = none)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "how long a SIGTERM drain waits for running jobs before cancelling them")
	peers := flag.String("peers", "", "comma-separated base URLs of every fleet member (including this node); enables consistent-hash routing")
	self := flag.String("self", "", "this node's base URL as it appears in -peers (required with -peers)")
	flag.Parse()

	cfg := serverConfig{
		Quick: *quick, Workers: *workers, Queue: *queue,
		JobTimeout: *jobTimeout, DrainTimeout: *drainTimeout,
	}
	var local *store.DirBackend
	if *storeDir != "" {
		limit, err := store.ParseSize(*storeLimit)
		if err != nil {
			fmt.Fprintln(os.Stderr, "opgated: -store-limit:", err)
			os.Exit(2)
		}
		local, err = store.OpenDir(*storeDir, limit)
		if err != nil {
			fmt.Fprintln(os.Stderr, "opgated:", err)
			os.Exit(2)
		}
		cfg.Store = store.NewStore(local)
		cfg.Objects = local
	}
	if *peers != "" {
		members := strings.Split(*peers, ",")
		for i := range members {
			members[i] = strings.TrimRight(strings.TrimSpace(members[i]), "/")
		}
		fl, err := newFleet(strings.TrimRight(*self, "/"), members)
		if err != nil {
			fmt.Fprintln(os.Stderr, "opgated:", err)
			os.Exit(2)
		}
		cfg.Fleet = fl
		if local != nil {
			// The node's store becomes two-tier: the local directory in
			// front, ring peers behind (read-through, async write-back).
			// /v1/objects keeps serving the *local* tier only, so peer
			// object traffic always terminates here.
			cfg.Store = store.NewStore(store.NewTiered(local, fl.remote(), 0))
		}
		log.Printf("opgated: fleet of %d (self %s)", len(members), *self)
	}
	jpath := *journalPath
	if jpath == "auto" {
		jpath = ""
		if *storeDir != "" {
			jpath = filepath.Join(*storeDir, "journal.log")
		}
	} else if jpath == "off" {
		jpath = ""
	}
	if jpath != "" {
		jnl, recovered, err := journal.Open(jpath, journal.DefaultCompactBudget, client.TerminalStatus, nil)
		if err != nil {
			fmt.Fprintln(os.Stderr, "opgated: -journal:", err)
			os.Exit(2)
		}
		defer jnl.Close()
		cfg.Journal = jnl
		cfg.Recovered = recovered
		log.Printf("opgated: journal %s: replayed %d record(s)", jpath, len(recovered))
	}
	s := newServer(cfg)
	// No WriteTimeout: ?follow=1 streams legitimately outlive any fixed
	// bound. ReadHeaderTimeout fends off slow-header connections and
	// IdleTimeout reaps idle keep-alives, so neither can pin the drain.
	srv := &http.Server{
		Addr:              *addr,
		Handler:           s,
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	log.Printf("opgated: listening on %s (quick=%v workers=%d store=%q job-timeout=%s drain-timeout=%s)",
		*addr, *quick, *workers, *storeDir, *jobTimeout, *drainTimeout)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, os.Interrupt)
	select {
	case err := <-errc:
		log.Fatal("opgated: ", err)
	case got := <-sig:
		log.Printf("opgated: %v: draining (timeout %s)", got, *drainTimeout)
		clean := s.Drain()
		// Jobs are settled; now close the listener and let in-flight
		// responses (follow streams reading the endgame) finish.
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		_ = srv.Shutdown(ctx)
		cancel()
		if !clean {
			log.Printf("opgated: drain timed out with jobs still active")
			os.Exit(1)
		}
		log.Printf("opgated: drained cleanly")
	}
}
