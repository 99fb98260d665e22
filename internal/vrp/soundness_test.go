package vrp

import (
	"testing"

	"opgate/internal/emu"
	"opgate/internal/workload"
)

// TestRangesContainObservedValues is the strongest check on the forward
// analysis: run every kernel and verify that every dynamically produced
// value lies inside the statically computed range of its producing
// instruction. Any unsoundness in the transfer functions, the loop
// trip-count logic, branch refinement, widening, or the interprocedural
// summaries shows up here immediately.
func TestRangesContainObservedValues(t *testing.T) {
	for _, w := range workload.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			p, err := w.Build(workload.Ref)
			if err != nil {
				t.Fatal(err)
			}
			r, err := Analyze(p, Options{Mode: Useful})
			if err != nil {
				t.Fatal(err)
			}
			m := emu.New(p)
			violations := 0
			m.Sink = emu.RecFunc(func(b emu.RecBatch) {
				for i, idx := range b.Idx {
					if violations > 3 {
						return
					}
					if b.Flags[i]&emu.RecWritesDest == 0 {
						continue
					}
					res := r.ResRange[idx]
					if res.IsEmpty() {
						violations++
						t.Errorf("instruction %d (%s) executed but its range is empty (unreachable?)",
							idx, p.Ins[idx].String())
						continue
					}
					if !res.Contains(b.Value[i]) {
						violations++
						t.Errorf("instruction %d (%s): observed value %d outside static range %v",
							idx, p.Ins[idx].String(), b.Value[i], res)
					}
				}
			})
			if err := m.Run(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestOperandRangesContainObservedValues does the same for the recorded
// input-operand ranges (what the compare-width assignment and VRS's
// savings model consume).
func TestOperandRangesContainObservedValues(t *testing.T) {
	for _, w := range workload.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			p, err := w.Build(workload.Ref)
			if err != nil {
				t.Fatal(err)
			}
			r, err := Analyze(p, Options{Mode: Useful})
			if err != nil {
				t.Fatal(err)
			}
			m := emu.New(p)
			violations := 0
			m.Sink = emu.RecFunc(func(b emu.RecBatch) {
				for i, idx := range b.Idx {
					if violations > 3 {
						return
					}
					in := &p.Ins[idx]
					uses, n := in.Uses()
					if n == 0 || uses[0] != in.Ra {
						continue
					}
					ra := r.RaRange[idx]
					if !ra.IsEmpty() && !ra.Contains(b.SrcA[i]) {
						violations++
						t.Errorf("instruction %d (%s): operand value %d outside recorded range %v",
							idx, in.String(), b.SrcA[i], ra)
					}
				}
			})
			if err := m.Run(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestDemandWithinBounds: demands are always 1..8, and conventional mode
// demands everything.
func TestDemandWithinBounds(t *testing.T) {
	w, _ := workload.ByName("gcc")
	p, _ := w.Build(workload.Train)
	useful, err := Analyze(p, Options{Mode: Useful})
	if err != nil {
		t.Fatal(err)
	}
	conv, err := Analyze(p, Options{Mode: Conventional})
	if err != nil {
		t.Fatal(err)
	}
	for i := range p.Ins {
		if d := useful.Demand[i]; d < 1 || d > 8 {
			t.Fatalf("demand[%d] = %d", i, d)
		}
		if conv.Demand[i] != 8 {
			t.Fatalf("conventional demand[%d] = %d, want 8", i, conv.Demand[i])
		}
		if useful.Demand[i] > conv.Demand[i] {
			t.Fatalf("useful demand exceeds conventional at %d", i)
		}
	}
}

// TestWidthNeverWidens: the assigned width never exceeds the width the
// program was written with (VRP only narrows; widening would change
// truncation semantics).
func TestWidthNeverWidens(t *testing.T) {
	for _, w := range workload.All() {
		p, err := w.Build(workload.Train)
		if err != nil {
			t.Fatal(err)
		}
		r, err := Analyze(p, Options{Mode: Useful})
		if err != nil {
			t.Fatal(err)
		}
		for i := range p.Ins {
			if r.Width[i] > p.Ins[i].Width {
				t.Fatalf("%s: instruction %d widened %v -> %v",
					w.Name, i, p.Ins[i].Width, r.Width[i])
			}
		}
	}
}
