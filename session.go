package opgate

import (
	"context"
	"fmt"
	"slices"

	"opgate/internal/harness"
	"opgate/internal/store"
	"opgate/internal/workload"
)

// DefaultThreshold is the paper's headline VRS cost threshold (nJ) —
// the default for sessions that do not set WithThreshold.
const DefaultThreshold = 50

// Session is the single programmatic entry point to the experiment
// pipeline: one configured evaluation envelope (input class, workload
// set, worker pool, persistent store) over the shared memoized suite
// that makes repeated experiments incremental. Construct it with
// functional options and drive it with Run/RunAll; results are
// structured Reports, rendered by any Renderer.
//
//	sess, _ := opgate.NewSession(opgate.WithQuick(true))
//	reports, _ := sess.RunAll(ctx)
//	opgate.TextRenderer{}.Render(os.Stdout, reports)
//
// A Session is safe for concurrent use: the suite underneath memoizes
// per-key with singleflight semantics, so concurrent runs coalesce
// instead of duplicating work.
type Session struct {
	suite     *harness.Suite
	threshold float64
}

// Option configures a Session at construction.
type Option func(*Session) error

// NewSession builds a session with the paper's machine parameters,
// evaluating on ref inputs at the default VRS threshold unless options
// say otherwise.
func NewSession(opts ...Option) (*Session, error) {
	s := &Session{suite: harness.NewSuite(false), threshold: DefaultThreshold}
	for _, opt := range opts {
		if err := opt(s); err != nil {
			return nil, fmt.Errorf("opgate: %w", err)
		}
	}
	// Validated after all options ran, because functional options apply in
	// any order: WithSynthetics(trace...) before WithStore is fine, a
	// trace-backed workload with no store at the end is not — there would
	// be nothing to replay from.
	if s.suite.Store == nil {
		for _, name := range s.suite.Synthetics {
			if workload.IsTrace(name) {
				return nil, fmt.Errorf("opgate: workload %q is trace-backed and needs a store (WithStore or WithStoreDir)", name)
			}
		}
	}
	return s, nil
}

// WithQuick selects the train inputs for evaluation runs, trimming
// run time; the default (false) evaluates on ref inputs like the paper.
func WithQuick(quick bool) Option {
	return func(s *Session) error { s.suite.Quick = quick; return nil }
}

// WithWorkers bounds the per-workload fan-out of the experiment drivers;
// 0 means GOMAXPROCS, 1 reproduces a strictly sequential run.
func WithWorkers(n int) Option {
	return func(s *Session) error {
		if n < 0 {
			return fmt.Errorf("workers %d: must be >= 0", n)
		}
		s.suite.Workers = n
		return nil
	}
}

// WithThreshold sets the session's default VRS specialization threshold
// (the paper sweeps 110..30 nJ); per-run AtThreshold overrides it.
func WithThreshold(nj float64) Option {
	return func(s *Session) error {
		if nj <= 0 {
			return fmt.Errorf("threshold %g: must be > 0", nj)
		}
		s.threshold = nj
		return nil
	}
}

// WithSynthetics appends generated workloads — registry names like
// "syn:narrow/small/7", typically from ExpandSynthetics — to the paper's
// eight benchmarks in every experiment. Unknown names fail construction.
// Duplicates (within one call or across repeated options) are dropped
// order-preserving, like ExpandSynthetics: a repeated name would
// otherwise duplicate report rows, double-weight the AVG row, and fork
// the report key away from the deduplicated spelling of the same set.
func WithSynthetics(names ...string) Option {
	return func(s *Session) error {
		for _, name := range names {
			if _, err := workload.ByName(name); err != nil {
				return err
			}
			if !slices.Contains(s.suite.Synthetics, name) {
				s.suite.Synthetics = append(s.suite.Synthetics, name)
			}
		}
		return nil
	}
}

// WithStore attaches a persistent content-addressed store (OpenStore):
// packed traces and reports survive the process, so warm sessions
// re-emulate nothing they have already seen.
func WithStore(st *Store) Option {
	return func(s *Session) error {
		if st == nil {
			return fmt.Errorf("WithStore: nil store")
		}
		s.suite.Store = st
		return nil
	}
}

// WithStoreDir is WithStore over a store opened (or created) at dir with
// a byte budget (0 = unlimited).
func WithStoreDir(dir string, limitBytes int64) Option {
	return func(s *Session) error {
		st, err := store.Open(dir, limitBytes)
		if err != nil {
			return err
		}
		s.suite.Store = st
		return nil
	}
}

// WithBackend is WithStore over any storage Backend — a directory tier,
// an HTTP object peer, a tiered composition, or a custom implementation.
// The backend is wrapped in the standard Store codec layer, so sessions
// see the same accelerator-only contract regardless of what holds the
// bytes.
func WithBackend(b Backend) Option {
	return func(s *Session) error {
		if b == nil {
			return fmt.Errorf("WithBackend: nil backend")
		}
		s.suite.Store = store.NewStore(b)
		return nil
	}
}

// RunOption adjusts one Run/RunAll/ReportKey call.
type RunOption func(*runParams)

type runParams struct{ threshold float64 }

// AtThreshold overrides the session's VRS threshold for one call.
func AtThreshold(nj float64) RunOption {
	return func(p *runParams) { p.threshold = nj }
}

func (s *Session) params(opts []RunOption) (runParams, error) {
	p := runParams{threshold: s.threshold}
	for _, opt := range opts {
		opt(&p)
	}
	// AtThreshold is the unvalidated back door around WithThreshold's
	// check; hold it to the same rule.
	if p.threshold <= 0 {
		return p, fmt.Errorf("opgate: threshold %g: must be > 0", p.threshold)
	}
	return p, nil
}

// ExperimentInfo describes one runnable experiment.
type ExperimentInfo struct {
	ID    string `json:"id"`
	Title string `json:"title"`
}

// Experiments lists every experiment in the paper's presentation order.
func Experiments() []ExperimentInfo {
	exps := harness.Experiments()
	infos := make([]ExperimentInfo, len(exps))
	for i, e := range exps {
		infos[i] = ExperimentInfo{ID: e.ID, Title: e.Title}
	}
	return infos
}

// Experiments lists the experiments this session can run.
func (s *Session) Experiments() []ExperimentInfo { return Experiments() }

// Run regenerates one experiment as a structured report. Cancelling ctx
// stops scheduling per-workload work and returns the context's error.
func (s *Session) Run(ctx context.Context, id string, opts ...RunOption) (*Report, error) {
	p, err := s.params(opts)
	if err != nil {
		return nil, err
	}
	return s.suite.RunExperiment(ctx, id, p.threshold)
}

// RunAll regenerates every experiment in order — the sequence behind
// `ogbench -experiment all`.
func (s *Session) RunAll(ctx context.Context, opts ...RunOption) ([]*Report, error) {
	p, err := s.params(opts)
	if err != nil {
		return nil, err
	}
	return s.suite.RunAll(ctx, p.threshold)
}

// Sweep evaluates one experiment across a grid of VRS thresholds,
// returning the threshold-axis report (schema "opgate.sweep/v1"). The
// grid shares every threshold-independent artifact — one train emulation
// per workload, one baseline/VRP simulation set — so a K-point sweep
// costs one profile pass plus K cheap selections, not K full runs; each
// cell is bit-identical to Run at that threshold.
//
// With a store attached the cells are content-addressed individually,
// under the exact ReportKey a single-threshold run is filed at: a grown
// grid recomputes only its missing cells, and a stored cell serves
// opgated's warm check for the matching single-threshold job (and vice
// versa).
func (s *Session) Sweep(ctx context.Context, id string, thresholds ...float64) (*SweepReport, error) {
	e, ok := harness.LookupExperiment(id)
	if !ok {
		return nil, fmt.Errorf("opgate: unknown experiment %q", id)
	}
	if err := harness.ValidThresholds(thresholds); err != nil {
		return nil, fmt.Errorf("opgate: sweep %s: %w", id, err)
	}
	cells := make([]*Report, len(thresholds))
	var missing []float64
	if s.suite.Store != nil {
		for i, th := range thresholds {
			data, ok := s.suite.Store.Get(s.cellKey(id, th))
			if ok {
				if rs, err := harness.DecodeReports(data); err == nil && len(rs) == 1 && rs[0].ID == id {
					cells[i] = rs[0]
					continue
				}
				// Undecodable or foreign blob: treat as a miss, recompute.
			}
			missing = append(missing, th)
		}
	} else {
		missing = thresholds
	}
	if len(missing) > 0 {
		fresh, err := s.suite.Sweep(ctx, id, missing)
		if err != nil {
			return nil, err
		}
		next := 0
		for i := range cells {
			if cells[i] == nil {
				cells[i] = fresh.Cells[next]
				next++
			}
		}
		if s.suite.Store != nil {
			for j, r := range fresh.Cells {
				blob, err := EncodeReports([]*Report{r})
				if err != nil {
					return nil, err
				}
				// Best-effort write-back, like trace capture.
				_ = s.suite.Store.Put(s.cellKey(id, missing[j]), blob)
			}
		}
	}
	return &SweepReport{
		ID: e.ID, Title: e.Title,
		Thresholds: slices.Clone(thresholds),
		Cells:      cells,
	}, nil
}

// cellKey is the store address of one sweep cell: exactly the ReportKey
// of a single-threshold run, so sweeps and plain runs warm each other.
func (s *Session) cellKey(id string, threshold float64) store.Key {
	return store.ReportKey(id, s.suite.Quick, threshold,
		s.suite.Synthetics, store.SelfIdentity())
}

// SweepKey derives the content address a store files this session's
// encoded sweep document under — ReportKey's dimensions with the whole
// grid as the threshold axis. The per-cell addresses remain ReportKey;
// this addresses the assembled grid view (opgated's sweep jobs).
func (s *Session) SweepKey(id string, thresholds ...float64) string {
	return string(store.SweepKey(id, s.suite.Quick, thresholds,
		s.suite.Synthetics, store.SelfIdentity()))
}

// ReportKey derives the content address a store files this session's
// report sequence under for one experiment ID (or "all"): the experiment,
// input class, threshold, workload set and the running executable's
// identity hash, so a rebuilt binary can never serve stale reports. An
// invalid per-call threshold keys an address no Run will ever fill.
func (s *Session) ReportKey(id string, opts ...RunOption) string {
	p := runParams{threshold: s.threshold}
	for _, opt := range opts {
		opt(&p)
	}
	return string(store.ReportKey(id, s.suite.Quick, p.threshold,
		s.suite.Synthetics, store.SelfIdentity()))
}

// Emulations reports how many functional emulations the session has
// performed (the warm-store probe: zero on a fully warm run).
func (s *Session) Emulations() int64 { return s.suite.Emulations() }

// TrainEmulations reports how many VRS train profiling emulations the
// session has performed — one per workload profiled, however many
// thresholds were evaluated (the sweep profile-reuse probe).
func (s *Session) TrainEmulations() int64 { return s.suite.TrainEmulations() }

// Threshold returns the session's default VRS threshold.
func (s *Session) Threshold() float64 { return s.threshold }

// Synthetics returns the registered synthetic workload names.
func (s *Session) Synthetics() []string {
	return append([]string(nil), s.suite.Synthetics...)
}

// StoreStats returns the attached store's counters; ok is false when the
// session runs without a store.
func (s *Session) StoreStats() (stats StoreStats, ok bool) {
	if s.suite.Store == nil {
		return StoreStats{}, false
	}
	return s.suite.Store.Stats(), true
}

// ExpandSynthetics expands a synthetic-workload spec — "all" (the curated
// set), a comma-separated family list, or exact "syn:family/class/seed"
// names — into validated registry names for WithSynthetics. seedClassSet
// flags an explicitly supplied seed/class, which only family lists
// consume; the combination is rejected otherwise rather than silently
// ignored. ogbench's -synthetic flag and opgated's experiment requests
// share this expansion.
func ExpandSynthetics(spec string, seed uint64, class string, seedClassSet bool) ([]string, error) {
	return harness.ExpandSynthetics(spec, seed, class, seedClassSet)
}
