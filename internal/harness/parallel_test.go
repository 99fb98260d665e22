package harness

import (
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"opgate/internal/uarch"
)

// TestParallelSuiteDeterministic: a suite fanned out across the full
// worker pool must produce reports identical to a strictly sequential
// run — same rows, same floats, same formatting. Table1 is pure
// parameter arithmetic; Figure3 exercises the whole concurrent artifact
// graph (builds, VRP, simulations) plus ordered float accumulation.
func TestParallelSuiteDeterministic(t *testing.T) {
	seq := NewSuite(true)
	seq.Workers = 1
	par := NewSuite(true)
	par.Workers = 2 * runtime.GOMAXPROCS(0) // oversubscribe to shake out ordering races

	seqT1 := seq.Table1().Format()
	parT1 := par.Table1().Format()
	if seqT1 != parT1 {
		t.Errorf("Table1 differs between sequential and parallel runs:\n--- sequential\n%s\n--- parallel\n%s", seqT1, parT1)
	}

	seqF3, err := seq.Figure3(testCtx)
	if err != nil {
		t.Fatal(err)
	}
	parF3, err := par.Figure3(testCtx)
	if err != nil {
		t.Fatal(err)
	}
	if s, p := seqF3.Format(), parF3.Format(); s != p {
		t.Errorf("Figure3 differs between sequential and parallel runs:\n--- sequential\n%s\n--- parallel\n%s", s, p)
	}
}

// TestSuiteMemoizesUnderConcurrency: hammering the same artifact from
// many goroutines must yield one shared result (singleflight), not
// duplicate work or torn state — also when the callers reach it through
// different variant labels that build one binary (compress's VRS emits
// its VRP binary at every paper threshold). Each caller asks for its
// label's role mode. That binary is a width-only rewrite, whose pass
// takes its base binary's timing pass first, so the race emulates two
// binaries, the rewrite and its base, once each.
func TestSuiteMemoizesUnderConcurrency(t *testing.T) {
	s := NewSuite(true)
	labels := []string{"vrp", "vrs110", "vrs50"}
	const callers = 16
	type out struct {
		r   *uarch.Result
		err error
	}
	outs := make(chan out, callers)
	for i := 0; i < callers; i++ {
		label := labels[i%len(labels)]
		go func() {
			mode, err := roleMode(s, "compress", label)
			if err != nil {
				outs <- out{nil, err}
				return
			}
			r, err := s.Sim("compress", label, mode)
			outs <- out{r, err}
		}()
	}
	var first *uarch.Result
	for i := 0; i < callers; i++ {
		o := <-outs
		if o.err != nil {
			t.Fatal(o.err)
		}
		if i == 0 {
			first = o.r
		} else if o.r != first {
			t.Fatalf("caller %d saw a different result than the first caller", i)
		}
	}
	if n := s.Emulations(); n != 2 {
		t.Errorf("%d callers over %v performed %d emulations, want 2 (the rewrite and its base)", callers, labels, n)
	}
	if n := s.cores.Load(); n != 1 {
		t.Errorf("%d callers over %v ran the timing core %d times, want 1 (the base binary's pass)", callers, labels, n)
	}
}

// TestMapSliceRecoversWorkerPanic: a panic in one item's worker becomes
// that item's error, stack included, instead of killing the process; the
// other items still complete.
func TestMapSliceRecoversWorkerPanic(t *testing.T) {
	var done atomic.Int64
	_, err := mapSlice(testCtx, 2, []int{0, 1, 2, 3}, func(i int) (int, error) {
		if i == 2 {
			var empty []int
			return empty[i], nil
		}
		done.Add(1)
		return i, nil
	})
	if err == nil {
		t.Fatal("panicking item returned no error")
	}
	if msg := err.Error(); !strings.Contains(msg, "index out of range") || !strings.Contains(msg, "goroutine") {
		t.Errorf("error lacks the panic value or its stack: %v", err)
	}
	if got := done.Load(); got != 3 {
		t.Errorf("%d of the 3 healthy items completed", got)
	}
}

// TestMemoRecordsPanicAsError: a panic inside a memo computation becomes
// the entry's error, stack included, for the first caller and for every
// later caller of the key — sync.Once counts the panicking call as done,
// so the entry must not be left holding a zero value and a nil error.
func TestMemoRecordsPanicAsError(t *testing.T) {
	var m memo[string, *int]
	var runs atomic.Int64
	fn := func() (*int, error) {
		runs.Add(1)
		var empty []int
		return &empty[1], nil
	}
	first := func() (err error) {
		defer func() {
			if r := recover(); r != nil {
				t.Errorf("panic escaped do: %v", r)
			}
		}()
		_, err = m.do("k", fn)
		return err
	}()
	if first == nil {
		t.Error("panicking computation returned no error")
	}
	v, err := m.do("k", fn)
	if err == nil || v != nil {
		t.Fatalf("second do on the poisoned key = (%v, %v), want an error", v, err)
	}
	if msg := err.Error(); !strings.Contains(msg, "index out of range") || !strings.Contains(msg, "goroutine") {
		t.Errorf("error lacks the panic value or its stack: %v", err)
	}
	if n := runs.Load(); n != 1 {
		t.Errorf("computation ran %d times, want once", n)
	}
}
