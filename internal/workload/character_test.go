package workload

import (
	"testing"

	"opgate/internal/emu"
	"opgate/internal/isa"
	"opgate/internal/vrp"
)

// dynShare64 returns the dynamic 64-bit share of a kernel after proposed
// VRP — its "width character".
func dynShare64(t *testing.T, name string) float64 {
	t.Helper()
	w, err := ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	p, err := w.Build(Ref)
	if err != nil {
		t.Fatal(err)
	}
	r, err := vrp.Analyze(p, vrp.Options{Mode: vrp.Useful})
	if err != nil {
		t.Fatal(err)
	}
	var h vrp.WidthHistogram
	m := emu.New(r.Apply())
	m.Sink = emu.RecFunc(func(b emu.RecBatch) {
		for i, op := range b.Op {
			if vrp.CountsWidth(isa.Op(op)) {
				h.Add(isa.Width(b.WBytes[i]), 1)
			}
		}
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	return h.Fraction(3)
}

// TestWidthCharacter locks in the cross-benchmark width ordering the
// figures depend on: the pointer-chasing kernels (li, vortex) are the
// widest — their cdr/link pointers are genuine 5-byte values — while the
// board/image kernels (go, ijpeg) are the narrowest. This mirrors the
// paper's observation that data-intensive codes benefit most.
func TestWidthCharacter(t *testing.T) {
	li := dynShare64(t, "li")
	vortex := dynShare64(t, "vortex")
	goShare := dynShare64(t, "go")
	ijpeg := dynShare64(t, "ijpeg")

	if li < 0.5 {
		t.Errorf("li 64-bit share %.2f: list traversal should be pointer-dominated", li)
	}
	if vortex < 0.35 {
		t.Errorf("vortex 64-bit share %.2f: record links should keep it wide", vortex)
	}
	if goShare > 0.3 {
		t.Errorf("go 64-bit share %.2f: board influence should be narrow", goShare)
	}
	if ijpeg > 0.4 {
		t.Errorf("ijpeg 64-bit share %.2f: byte pixels should keep it narrow", ijpeg)
	}
	if li <= goShare || vortex <= ijpeg {
		t.Error("pointer kernels must be wider than data kernels")
	}
}

// TestDeterministicBuilds: the same (name, class) always produces an
// identical binary — required for the train/ref layout contract VRS
// relies on.
func TestDeterministicBuilds(t *testing.T) {
	for _, w := range All() {
		p1, err := w.Build(Train)
		if err != nil {
			t.Fatal(err)
		}
		p2, err := w.Build(Train)
		if err != nil {
			t.Fatal(err)
		}
		if len(p1.Ins) != len(p2.Ins) {
			t.Fatalf("%s: nondeterministic instruction count", w.Name)
		}
		for i := range p1.Ins {
			if p1.Ins[i] != p2.Ins[i] {
				t.Fatalf("%s: instruction %d differs between builds", w.Name, i)
			}
		}
	}
}

// TestTrainRefLayoutContract: train and ref binaries of every kernel share
// the static instruction layout (only immediates and data may differ) —
// the contract vrs.Specialize checks at runtime.
func TestTrainRefLayoutContract(t *testing.T) {
	for _, w := range All() {
		trainP, err := w.Build(Train)
		if err != nil {
			t.Fatal(err)
		}
		refP, err := w.Build(Ref)
		if err != nil {
			t.Fatal(err)
		}
		if len(trainP.Ins) != len(refP.Ins) {
			t.Errorf("%s: train %d vs ref %d instructions", w.Name, len(trainP.Ins), len(refP.Ins))
			continue
		}
		for i := range trainP.Ins {
			a, b := trainP.Ins[i], refP.Ins[i]
			if a.Op != b.Op || a.Rd != b.Rd || a.Ra != b.Ra || a.Rb != b.Rb {
				t.Errorf("%s: instruction %d differs structurally (%v vs %v)",
					w.Name, i, a.String(), b.String())
				break
			}
		}
	}
}

// TestOutputsStable: golden outputs — kernels are deterministic; a change
// in behaviour (e.g. a kernel edit) must be deliberate.
func TestOutputsStable(t *testing.T) {
	for _, w := range All() {
		p, err := w.Build(Train)
		if err != nil {
			t.Fatal(err)
		}
		r1, err := emu.Execute(p)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := emu.Execute(p)
		if err != nil {
			t.Fatal(err)
		}
		if string(r1.Output) != string(r2.Output) || r1.Dyn != r2.Dyn {
			t.Errorf("%s: nondeterministic execution", w.Name)
		}
	}
}
