package progen

import (
	"testing"

	"opgate/internal/emu"
	"opgate/internal/isa"
	"opgate/internal/prog"
	"opgate/internal/vrp"
)

// WidthBand returns the family's target band for the dynamic 64-bit share
// of width-bearing instructions (as emitted, before VRP re-narrowing).
// Every generated program of the family lands inside the band regardless
// of seed; the tests rely on this to place workloads in
// chosen regions of the width spectrum.
func (f Family) WidthBand() (lo, hi float64) {
	switch f {
	case Narrow:
		return 0.0, 0.35
	case Wide:
		return 0.65, 1.0
	case Pointer:
		return 0.45, 0.95
	case Branchy:
		return 0.05, 0.50
	case Stream:
		return 0.05, 0.50
	case Churn:
		return 0.15, 0.60
	}
	return 0, 1
}

// seeds used by the generator tests; arbitrary but fixed.
var testSeeds = []uint64{1, 7, 42, 0xDEADBEEF}

// samePrograms reports structural equality of two programs: identical
// instruction images, data segments and function tables.
func samePrograms(a, b *prog.Program) bool {
	if len(a.Ins) != len(b.Ins) || len(a.Data) != len(b.Data) ||
		len(a.Funcs) != len(b.Funcs) || a.Entry != b.Entry ||
		a.DataBase != b.DataBase || a.MemSize != b.MemSize {
		return false
	}
	for i := range a.Ins {
		if a.Ins[i] != b.Ins[i] {
			return false
		}
	}
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			return false
		}
	}
	for i := range a.Funcs {
		if a.Funcs[i].Name != b.Funcs[i].Name ||
			a.Funcs[i].Start != b.Funcs[i].Start ||
			a.Funcs[i].End != b.Funcs[i].End {
			return false
		}
	}
	return true
}

// TestGenerateDeterministic: the seeding contract — the same
// (family, seed, class, variant) is byte-identical across calls.
func TestGenerateDeterministic(t *testing.T) {
	for _, f := range Families() {
		for _, seed := range testSeeds {
			for _, ref := range []bool{false, true} {
				p1, err := Generate(f, seed, Small, ref)
				if err != nil {
					t.Fatalf("%v/%d: %v", f, seed, err)
				}
				p2, err := Generate(f, seed, Small, ref)
				if err != nil {
					t.Fatalf("%v/%d: %v", f, seed, err)
				}
				if !samePrograms(p1, p2) {
					t.Errorf("%v/%d ref=%v: nondeterministic generation", f, seed, ref)
				}
			}
		}
	}
}

// TestGenerateDeterministicParallel re-runs the determinism check from
// concurrent goroutines: the generator must be pure (no shared state), so
// this also serves as the -race witness of the seeding contract.
func TestGenerateDeterministicParallel(t *testing.T) {
	for _, f := range Families() {
		f := f
		t.Run(f.String(), func(t *testing.T) {
			t.Parallel()
			want, err := Generate(f, 99, Small, false)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Generate(f, 99, Small, false)
			if err != nil {
				t.Fatal(err)
			}
			if !samePrograms(want, got) {
				t.Errorf("%v: nondeterministic under concurrency", f)
			}
		})
	}
}

// TestGeneratedProgramsRun: every family × class × seed builds a valid
// program that halts, produces output, and runs strictly longer on the
// ref variant — the registry health contract the eight kernels satisfy.
func TestGeneratedProgramsRun(t *testing.T) {
	for _, f := range Families() {
		for c := Small; c <= Large; c++ {
			for _, seed := range testSeeds {
				var dyn [2]int64
				for i, ref := range []bool{false, true} {
					p, err := Generate(f, seed, c, ref)
					if err != nil {
						t.Fatalf("%v/%v/%d: %v", f, c, seed, err)
					}
					if err := p.Validate(); err != nil {
						t.Fatalf("%v/%v/%d: invalid program: %v", f, c, seed, err)
					}
					res, err := emu.Execute(p)
					if err != nil {
						t.Fatalf("%v/%v/%d ref=%v: %v", f, c, seed, ref, err)
					}
					if len(res.Output) == 0 {
						t.Errorf("%v/%v/%d ref=%v: no output", f, c, seed, ref)
					}
					if res.Dyn < 1000 {
						t.Errorf("%v/%v/%d ref=%v: only %d retired instructions", f, c, seed, ref, res.Dyn)
					}
					dyn[i] = res.Dyn
				}
				if dyn[1] <= dyn[0] {
					t.Errorf("%v/%v/%d: ref (%d) not longer than train (%d)", f, c, seed, dyn[1], dyn[0])
				}
			}
		}
	}
}

// TestTrainRefLayoutContract: the train and ref variants of a generation
// share the static instruction layout (only immediates and data differ) —
// the contract vrs.Specialize enforces at runtime.
func TestTrainRefLayoutContract(t *testing.T) {
	for _, f := range Families() {
		for _, seed := range testSeeds {
			trainP, err := Generate(f, seed, Medium, false)
			if err != nil {
				t.Fatal(err)
			}
			refP, err := Generate(f, seed, Medium, true)
			if err != nil {
				t.Fatal(err)
			}
			if len(trainP.Ins) != len(refP.Ins) {
				t.Errorf("%v/%d: train %d vs ref %d instructions", f, seed, len(trainP.Ins), len(refP.Ins))
				continue
			}
			if len(trainP.Data) != len(refP.Data) {
				t.Errorf("%v/%d: train %d vs ref %d data bytes", f, seed, len(trainP.Data), len(refP.Data))
			}
			for i := range trainP.Ins {
				a, b := trainP.Ins[i], refP.Ins[i]
				if a.Op != b.Op || a.Rd != b.Rd || a.Ra != b.Ra || a.Rb != b.Rb ||
					a.Width != b.Width || a.Target != b.Target {
					t.Errorf("%v/%d: instruction %d differs structurally (%v vs %v)",
						f, seed, i, a.String(), b.String())
					break
				}
			}
		}
	}
}

// dynShare64 returns the dynamic 64-bit share of the program's
// width-bearing instructions as emitted (the generator's raw width
// character, before any VRP narrowing).
func dynShare64(t *testing.T, p *prog.Program) float64 {
	t.Helper()
	var h vrp.WidthHistogram
	m := emu.New(p)
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

// TestWidthCharacter: every family lands inside its declared band of the
// dynamic-width spectrum on every seed, and the cross-family ordering the
// band taxonomy promises (wide > pointer > narrow) holds.
func TestWidthCharacter(t *testing.T) {
	for _, seed := range testSeeds {
		share := make(map[Family]float64, NumFamilies)
		for _, f := range Families() {
			p, err := Generate(f, seed, Small, false)
			if err != nil {
				t.Fatal(err)
			}
			s := dynShare64(t, p)
			share[f] = s
			lo, hi := f.WidthBand()
			if s < lo || s > hi {
				t.Errorf("%v/%d: 64-bit share %.3f outside band [%.2f, %.2f]", f, seed, s, lo, hi)
			}
		}
		if !(share[Wide] > share[Pointer] && share[Pointer] > share[Narrow]) {
			t.Errorf("seed %d: width ordering violated: wide=%.3f pointer=%.3f narrow=%.3f",
				seed, share[Wide], share[Pointer], share[Narrow])
		}
	}
}

// TestVRPOnGeneratedPrograms: the binary optimizer's core soundness claim
// holds on arbitrary seeds — both VRP modes re-encode every generated
// program behaviour-preservingly.
func TestVRPOnGeneratedPrograms(t *testing.T) {
	for _, f := range Families() {
		p, err := Generate(f, 5, Small, true)
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []vrp.Mode{vrp.Conventional, vrp.Useful} {
			r, err := vrp.Analyze(p, vrp.Options{Mode: mode})
			if err != nil {
				t.Fatalf("%v: analyze(%v): %v", f, mode, err)
			}
			if err := emu.CheckEquivalence(p, r.Apply()); err != nil {
				t.Fatalf("%v: mode %v: %v", f, mode, err)
			}
		}
	}
}

// TestGenerateErrors: invalid families and classes are rejected, not
// silently mapped to a default.
func TestGenerateErrors(t *testing.T) {
	if _, err := Generate(Family(99), 1, Small, false); err == nil {
		t.Error("unknown family accepted")
	}
	if _, err := Generate(Family(-1), 1, Small, false); err == nil {
		t.Error("negative family accepted")
	}
	if _, err := Generate(Narrow, 1, Class(99), false); err == nil {
		t.Error("unknown class accepted")
	}
	if _, err := Generate(Narrow, 1, Class(-1), false); err == nil {
		t.Error("negative class accepted")
	}
}

// TestParseRoundTrip: names round-trip through the parsers, and unknown
// names are rejected.
func TestParseRoundTrip(t *testing.T) {
	for _, f := range Families() {
		got, err := ParseFamily(f.String())
		if err != nil || got != f {
			t.Errorf("ParseFamily(%q) = %v, %v", f.String(), got, err)
		}
	}
	for c := Small; c <= Large; c++ {
		got, err := ParseClass(c.String())
		if err != nil || got != c {
			t.Errorf("ParseClass(%q) = %v, %v", c.String(), got, err)
		}
	}
	if _, err := ParseFamily("noise"); err == nil {
		t.Error("ParseFamily accepted an unknown name")
	}
	if _, err := ParseClass("jumbo"); err == nil {
		t.Error("ParseClass accepted an unknown name")
	}
	if Family(99).String() == "" || Class(99).String() == "" {
		t.Error("out-of-range String() values must still format")
	}
}
