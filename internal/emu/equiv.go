package emu

import (
	"bytes"
	"fmt"

	"opgate/internal/prog"
)

// RunResult captures the observable outcome of a program execution.
type RunResult struct {
	Output []byte
	Dyn    int64
	Mem    []byte
}

// Execute runs a fresh machine over p and returns its observable result.
// The result holds copies of the output and final memory, so the machine's
// image goes back to the pool.
func Execute(p *prog.Program) (*RunResult, error) {
	m := New(p)
	defer m.Release()
	if err := m.Run(); err != nil {
		return nil, err
	}
	return &RunResult{
		Output: append([]byte(nil), m.Output...),
		Dyn:    m.Dyn,
		Mem:    append([]byte(nil), m.Mem...),
	}, nil
}

// CheckEquivalence runs both programs and verifies that their observable
// behaviour matches: identical output streams and identical final data
// memory. VRP re-encodes opcodes and VRS clones guarded regions, so both
// must be perfectly behaviour-preserving (§2: "VRP is always done in a
// conservative manner ... ensuring the correctness of results"). Both
// machines are compared in place and then released.
func CheckEquivalence(original, transformed *prog.Program) error {
	m1 := New(original)
	defer m1.Release()
	if err := m1.Run(); err != nil {
		return fmt.Errorf("original program failed: %w", err)
	}
	m2 := New(transformed)
	defer m2.Release()
	if err := m2.Run(); err != nil {
		return fmt.Errorf("transformed program failed: %w", err)
	}
	if !bytes.Equal(m1.Output, m2.Output) {
		return fmt.Errorf("output mismatch: original %d bytes, transformed %d bytes (first diff at %d)",
			len(m1.Output), len(m2.Output), firstDiff(m1.Output, m2.Output))
	}
	if !bytes.Equal(m1.Mem, m2.Mem) {
		return fmt.Errorf("final memory mismatch at offset %d", firstDiff(m1.Mem, m2.Mem))
	}
	return nil
}

func firstDiff(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}
