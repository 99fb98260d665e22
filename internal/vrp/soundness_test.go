package vrp

import (
	"fmt"
	"testing"

	"opgate/internal/emu"
	"opgate/internal/isa"
	"opgate/internal/prog"
	"opgate/internal/progen"
	"opgate/internal/workload"
)

// soundnessCase is one program analysed under one option set.
type soundnessCase struct {
	name  string
	build func() (*prog.Program, error)
	opts  Options
}

// ablationOptions are the one-off configurations the ablations analyse
// the kernels with (the useful and conventional modes run elsewhere).
var ablationOptions = []namedOptions{
	{"no-loop", Options{Mode: Useful, DisableLoopAnalysis: true}},
	{"no-branch", Options{Mode: Useful, DisableBranchRefinement: true}},
	{"ranges-only", Options{Mode: Conventional, DisableLoopAnalysis: true, DisableBranchRefinement: true}},
	{"base-opcodes", Options{Mode: Useful, Opcodes: isa.BaseOpcodeSet()}},
	{"full-opcodes", Options{Mode: Useful, Opcodes: isa.FullOpcodeSet()}},
}

// soundnessCases lists the programs the range-soundness wall runs over:
// the kernels (ref input) under the useful analysis, named by kernel; the
// kernels under each ablation configuration; and generated, flip and
// phased programs under both modes.
func soundnessCases() []soundnessCase {
	var out []soundnessCase
	for _, w := range workload.All() {
		build := func() (*prog.Program, error) { return w.Build(workload.Ref) }
		out = append(out, soundnessCase{w.Name, build, Options{Mode: Useful}})
		for _, a := range ablationOptions {
			out = append(out, soundnessCase{"ablation/" + a.name + "/" + w.Name, build, a.opts})
		}
	}
	var gen []testProgram
	for _, f := range progen.Families() {
		for _, c := range []progen.Class{progen.Small, progen.Medium} {
			for seed := uint64(1); seed <= 12; seed++ {
				gen = append(gen, testProgram{fmt.Sprintf("%s-s%d-%s", f, seed, c),
					func() (*prog.Program, error) { return progen.Generate(f, seed, c, true) }})
			}
		}
	}
	for _, ref := range []bool{false, true} {
		class := "train"
		if ref {
			class = "ref"
		}
		for seed := uint64(1); seed <= 8; seed++ {
			gen = append(gen,
				testProgram{fmt.Sprintf("flip4-s%d-%s", seed, class), func() (*prog.Program, error) {
					return progen.GenerateFlip(4, seed, progen.Small, ref)
				}},
				testProgram{fmt.Sprintf("phased-s%d-%s", seed, class), func() (*prog.Program, error) {
					p, _, err := progen.GeneratePhased(progen.Families()[:3], seed, progen.Small, ref)
					return p, err
				}})
		}
	}
	for _, mode := range []Mode{Useful, Conventional} {
		for _, tp := range gen {
			out = append(out, soundnessCase{"progen/" + mode.String() + "/" + tp.name, tp.build, Options{Mode: mode}})
		}
	}
	return out
}

// checkObserved analyses and runs every soundness case, handing each
// executed record to check together with the analysis result. check
// reports a violation by returning its description; each case stops
// reporting after a few.
func checkObserved(t *testing.T, check func(r *Result, in *isa.Instruction, b *emu.RecBatch, i int) string) {
	for _, sc := range soundnessCases() {
		t.Run(sc.name, func(t *testing.T) {
			p, err := sc.build()
			if err != nil {
				t.Fatal(err)
			}
			r, err := Analyze(p, sc.opts)
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
					if msg := check(r, &p.Ins[idx], &b, i); msg != "" {
						violations++
						t.Errorf("instruction %d (%s): %s", idx, p.Ins[idx].String(), msg)
					}
				}
			})
			if err := m.Run(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestRangesContainObservedValues is the strongest check on the forward
// analysis: run every soundness case and verify that every dynamically
// produced value lies inside the statically computed range of its
// producing instruction. Any unsoundness in the transfer functions, the
// loop trip-count logic, branch refinement, widening, or the
// interprocedural summaries shows up here immediately.
func TestRangesContainObservedValues(t *testing.T) {
	checkObserved(t, func(r *Result, _ *isa.Instruction, b *emu.RecBatch, i int) string {
		if b.Flags[i]&emu.RecWritesDest == 0 {
			return ""
		}
		res := r.ResRange[b.Idx[i]]
		if res.IsEmpty() {
			return "executed but its range is empty (unreachable?)"
		}
		if !res.Contains(b.Value[i]) {
			return fmt.Sprintf("observed value %d outside static range %v", b.Value[i], res)
		}
		return ""
	})
}

// TestOperandRangesContainObservedValues does the same for the recorded
// input-operand ranges (what the compare-width assignment and VRS's
// savings model consume).
func TestOperandRangesContainObservedValues(t *testing.T) {
	checkObserved(t, func(r *Result, in *isa.Instruction, b *emu.RecBatch, i int) string {
		uses, n := in.Uses()
		if n == 0 || uses[0] != in.Ra {
			return ""
		}
		ra := r.RaRange[b.Idx[i]]
		if !ra.IsEmpty() && !ra.Contains(b.SrcA[i]) {
			return fmt.Sprintf("operand value %d outside recorded range %v", b.SrcA[i], ra)
		}
		return ""
	})
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
