package harness

import (
	"fmt"
	"sync"

	"opgate/internal/emu"
	"opgate/internal/prog"
	"opgate/internal/tracework"
	"opgate/internal/workload"
)

// Trace-backed workloads ("trace:<name>") run through the suite on the
// replay path alone: their program is the skeleton synthesized at import
// time and their retirement stream is the imported trace, both served
// from the Store. The integration points are deliberately few — Program
// resolves the skeleton through the trace library, traceWith serves the
// imported blob through the ordinary store.GetTrace path (hit-or-error:
// there is nothing to emulate on a miss, so the capture rider never
// runs), and everything that would need a live emulation or a real
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

// traceTrace serves a trace-backed workload's retirement trace
// (traceWith's IsTrace branch): the imported blob under its content
// address, hit-or-error. The skeleton is the workload's only binary
// (variantBinary gates every other variant). The TraceBudget does not
// apply — replay of the imported records is the workload's only runnable
// form, so skipping an oversized trace would not save an emulation, it
// would break the workload.
func (s *Suite) traceTrace(b variantBin) (*emu.Trace, error) {
	if tr, ok := s.Store.GetTrace(s.traceKey(b), b.p, b.key.id); ok {
		return tr, nil
	}
	// The skeleton resolved but its blob is gone (eviction, corruption):
	// same remedy as never imported.
	return nil, &tracework.NotImportedError{Name: b.key.name, Class: s.evalClass().String()}
}

// traceLibState is the lazily bound library (embedded in Suite).
type traceLibState struct {
	libOnce sync.Once
	lib     *tracework.Library
}
