package opgate

import (
	"context"
	"fmt"
	"slices"

	"opgate/internal/harness"
	"opgate/internal/store"
	"opgate/internal/workload"
)

// DefaultThreshold is the paper's headline VRS cost threshold (nJ): the
// threshold of every Run and RunAll call that does not pass AtThreshold.
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
	suite *harness.Suite
}

// Option configures a Session at construction.
type Option func(*Session) error

// NewSession builds a session with the paper's machine parameters,
// evaluating on ref inputs unless options say otherwise.
func NewSession(opts ...Option) (*Session, error) {
	s := &Session{suite: harness.NewSuite(false)}
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
				return nil, fmt.Errorf("opgate: workload %q is trace-backed and needs a store (WithStore)", name)
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

// WithStore attaches a persistent content-addressed store: a directory
// store (OpenStore) or a Store over any Backend (NewStore). Packed traces
// and reports survive the process, so warm sessions re-emulate nothing
// they have already seen.
func WithStore(st *Store) Option {
	return func(s *Session) error {
		if st == nil || st.Backend == nil {
			return fmt.Errorf("WithStore: nil store")
		}
		s.suite.Store = st
		return nil
	}
}

// RunOption adjusts one Run/RunAll call.
type RunOption func(*runParams)

type runParams struct{ threshold float64 }

// AtThreshold sets one call's VRS specialization threshold (the paper
// sweeps 110..30 nJ) in place of DefaultThreshold; it must be > 0.
func AtThreshold(nj float64) RunOption {
	return func(p *runParams) { p.threshold = nj }
}

func (s *Session) params(opts []RunOption) (runParams, error) {
	p := runParams{threshold: DefaultThreshold}
	for _, opt := range opts {
		opt(&p)
	}
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
// under the exact store.ReportKey a single-threshold run is filed at: a grown
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

// cellKey is the store address of one sweep cell: exactly the
// store.ReportKey of a single-threshold run, so sweeps and plain runs
// warm each other.
func (s *Session) cellKey(id string, threshold float64) store.Key {
	return store.ReportKey(id, s.suite.Quick, threshold,
		s.suite.Synthetics, store.SelfIdentity())
}

// Emulations reports how many functional emulations the session has
// performed (the warm-store probe: zero on a fully warm run).
func (s *Session) Emulations() int64 { return s.suite.Emulations() }

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
