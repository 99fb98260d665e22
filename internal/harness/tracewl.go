package harness

import (
	"fmt"
	"sync"

	"opgate/internal/prog"
	"opgate/internal/tracework"
	"opgate/internal/workload"
)

// Trace-backed workloads ("trace:<name>") run through the suite on the
// replay path alone: their program is the skeleton synthesized at import
// time and their retirement stream is the imported trace, both served
// from the Store. The integration points are deliberately few — Program
// resolves the skeleton through the trace library, traverse streams the
// imported blob through the ordinary store.ReadTrace path (hit-or-error:
// there is nothing to emulate on a miss), and everything that would need a live emulation or a real
// control-flow graph (VRS training, non-base variants, the ablations'
// one-off VRP configurations) is gated with errors wrapping
// workload.ErrTraceOnly. Every replay-only experiment — the width
// figures, the gating mode matrices over the base binary — then runs
// unmodified, fused mode-groups and all, with zero suite-level
// emulations.

// library returns the suite's imported-trace library, bound lazily to
// the Store.
func (s *Suite) library() (*tracework.Library, error) {
	if s.Store == nil {
		return nil, fmt.Errorf("harness: trace-backed workloads need a store (run with -store)")
	}
	s.libOnce.Do(func() { s.lib = tracework.NewLibrary(s.Store) })
	return s.lib, nil
}

// traceOnlyErr is the uniform gate for operations a trace-backed
// workload cannot perform. errors.Is(err, workload.ErrTraceOnly) holds.
func traceOnlyErr(name, op string) error {
	return fmt.Errorf("harness: %s of %s needs a live emulation: %w", op, name, workload.ErrTraceOnly)
}

// traceProgram resolves a trace-backed workload's skeleton for an input
// class (Program's IsTrace branch).
func (s *Suite) traceProgram(name string, class workload.InputClass) (*prog.Program, error) {
	lib, err := s.library()
	if err != nil {
		return nil, err
	}
	p, _, err := lib.Skeleton(name, class)
	return p, err
}

// traceLibState is the lazily bound library (embedded in Suite).
type traceLibState struct {
	libOnce sync.Once
	lib     *tracework.Library
}
