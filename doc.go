// Package opgate is a Go reproduction of "Software-Controlled
// Operand-Gating" (Canal, González, Smith — CGO 2004): a binary-level
// value range propagation and profile-guided value range specialization
// pipeline that re-encodes programs with narrow opcodes so the processor
// can gate off unused datapath bytes, evaluated on an out-of-order timing
// model with a Wattch-style operand-gated power model.
//
// This package is the library's one front door, in two halves. The
// program-level facade (facade.go) covers the paper's flow on a single
// binary — Assemble, Optimize (VRP), Specialize (VRS), Simulate,
// CompareGating. The experiment pipeline (session.go) regenerates the
// paper's tables and figures over the whole workload suite: a Session is
// configured once with functional options (WithQuick, WithStore,
// WithSynthetics) and driven with Run/RunAll, each call at
// DefaultThreshold unless AtThreshold names another, under a
// context.Context that really cancels —
// mid-suite, the per-workload fan-out stops scheduling. Results are
// structured Report values (units and schema metadata, stable canonical
// JSON, cell-level Diff) rendered by pluggable Renderers: TextRenderer
// reproduces the classic aligned layout byte-for-byte, JSONRenderer the
// machine-readable opgate.reports/v1 encoding.
//
// Session.Sweep evaluates one experiment across a whole VRS threshold
// grid in a single pass: the train emulation and TNV profile behind each
// workload's specialization are threshold-independent, so a K-point
// sweep costs one profiling pass per workload plus K cheap selections —
// while every cell stays bit-identical to a plain Run at that threshold.
// The result is a SweepReport (schema opgate.sweep/v1, canonical
// EncodeSweep/DecodeSweep codec, per-threshold Diff). With a store
// attached each cell is filed under the same address a single-threshold
// run uses, so a grown grid recomputes only its missing cells. `ogbench
// -sweep lo:hi:step` (or an explicit comma list) drives a sweep from the
// CLI, and an opgated experiment request carrying a "thresholds" grid
// submits one as a single job, whose journal record carries the grid in
// a typed field for crash recovery.
//
// Everything else adapts this surface. `ogbench` renders a session to
// stdout (-format text|json); `opgated` serves it over HTTP (POST
// /v1/experiments, DELETE /v1/jobs/{id} for cancellation, GET
// /v1/reports/{key} negotiating text or canonical JSON via Accept) with
// production failure semantics — per-job deadlines (-job-timeout,
// terminal status "timeout"), panic isolation (a panicking job ends
// "failed" with its stack recorded; the worker pool survives), a
// SIGTERM graceful drain (-drain-timeout: /readyz flips unready, new
// submissions get 503 + Retry-After, queued jobs end "aborted"),
// load-aware admission control (once the queue is 3/4 full, uncached
// submissions shed first, with Retry-After derived from observed service
// times),
// and SIGKILL crash recovery via a durable job journal (-journal, on by
// default with -store: a restarted process re-adopts in-flight jobs
// under their original IDs and never re-runs work whose report is
// already stored). Several opgated nodes shard
// their stores into one fleet (-peers: consistent-hash routing of
// report keys, peer-object replication over GET/PUT /v1/objects/{key},
// local compute whenever a peer fails), and `ogload` load-tests a node
// or fleet with latency percentiles and hit-rate gates. Package
// opgate/client is the matching Go client: submit/poll/follow/cancel
// with context-aware exponential backoff that honors Retry-After
// (typed RetryAfterError), a typed Run (Result{Reports,Sweep}) that
// survives server restarts by falling back to the content-addressed
// report when a job vanishes mid-wait, and an ObjectBackend adapting a
// peer's object API to the store.Backend contract.
// The examples/ programs use the public API only. See internal/harness for the per-experiment
// drivers and DESIGN.md for the full system inventory. The root package
// also hosts the repository-level benchmark harness (bench_test.go).
//
// Beyond the paper's eight kernels, internal/progen generates seed-driven
// synthetic workloads in six behavioral families spanning the
// dynamic-width spectrum, plus two non-stationary forms: phase-structured
// composites that walk through several families in sequence
// (syn:phase/<f1>-<f2>/<class>/<seed>) and the adversarial width-flip
// family alternating narrow and wide arms every <period> blocks
// (syn:flip/<period>/<class>/<seed>). `ogbench -synthetic all` (or a
// family list with -seed/-class, shared with opgated via
// ExpandSynthetics) runs every experiment over the expanded suite, and
// internal/progen/difftest asserts the substrate's equivalence
// invariants on arbitrary seeds, composites and flips alike.
//
// Retirement traces cross the pipeline boundary as workloads of their
// own. `ogtrace export` captures any registry workload as a codec-framed
// trace blob; `ogtrace import` (or POST /v1/traces?name=N&class=C on a
// store-backed opgated, body-capped with 413 past 64 MiB, with
// client.UploadTrace as the Go surface) validates the blob end to end
// and registers it under a trace:<name> workload name. From then on any
// session whose store holds the import — WithSynthetics("trace:mytrace")
// plus WithStore — replays it through every replay-capable
// experiment byte-identically with zero emulations; paths that need a
// live run (VRS training, non-base variants, ablation configurations) error
// with workload.ErrTraceOnly rather than fabricating results.
//
// Evaluation artifacts persist across processes through the
// content-addressed store (OpenStore / WithStore): packed retirement
// traces and structured report blobs survive under hash addresses, so a
// warm `ogbench -store DIR` rerun emulates nothing while printing
// byte-identical reports, and a restarted opgated serves its predecessor's
// reports in either representation. The storage substrate is pluggable
// (WithStore(NewStore(b)) over any store.Backend — a directory tier, an
// HTTP object peer, or a store.NewTiered(local, remote) composition of
// both, with a fixed 64-entry write-back queue), and every
// backend inherits the accelerator-only contract: a fault of any class
// is a cache miss, never an error.
package opgate
