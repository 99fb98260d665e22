package opgate

import (
	"math"
	"strings"
	"testing"

	"opgate/internal/power"
)

const tiny = `
.func main
	lda r1, 5(rz)
	add r2, r1, #3
	out.b r2
	halt
`

// buildWorkload builds a registered benchmark for an input class.
func buildWorkload(t *testing.T, name string, class InputClass) *Program {
	t.Helper()
	w, err := WorkloadByName(name)
	if err != nil {
		t.Fatal(err)
	}
	p, err := w.Build(class)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestAssembleAndRun(t *testing.T) {
	p, err := Assemble(tiny)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Output) != 1 || res.Output[0] != 8 {
		t.Errorf("output = %v", res.Output)
	}
}

func TestOptimizeVerifies(t *testing.T) {
	p, err := Assemble(tiny)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := Optimize(p, OptimizeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(opt.Summary(), "8b") {
		t.Errorf("summary: %s", opt.Summary())
	}
	// The tiny program's constants fit one byte.
	h := opt.Analysis.StaticHistogram()
	if h.Count[0] == 0 {
		t.Error("no byte-width instructions found")
	}
}

func TestOptimizeConventionalVsUseful(t *testing.T) {
	p := buildWorkload(t, "compress", Train)
	conv, err := Optimize(p, OptimizeOptions{Conventional: true})
	if err != nil {
		t.Fatal(err)
	}
	useful, err := Optimize(p, OptimizeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	hc, hu := conv.Analysis.StaticHistogram(), useful.Analysis.StaticHistogram()
	if hu.Count[3] > hc.Count[3] {
		t.Error("useful mode produced more 64-bit instructions than conventional")
	}
}

func TestSpecializeFacade(t *testing.T) {
	trainP := buildWorkload(t, "vortex", Train)
	refP := buildWorkload(t, "vortex", Ref)
	spec, err := Specialize(trainP, refP, SpecializeOptions{Threshold: 50})
	if err != nil {
		t.Fatal(err)
	}
	if spec.Result.NumSpecialized() == 0 {
		t.Error("vortex should specialize its record-status point")
	}
}

func TestSimulateAndCompare(t *testing.T) {
	p, err := Assemble(tiny)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Simulate(p, GateNone)
	if err != nil {
		t.Fatal(err)
	}
	if r.Cycles <= 0 || r.Instructions != 4 {
		t.Errorf("cycles %d instructions %d", r.Cycles, r.Instructions)
	}
	opt, err := Optimize(p, OptimizeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	energy, ed2, err := CompareGating(opt.Program, GateSoftware)
	if err != nil {
		t.Fatal(err)
	}
	if energy < 0 || ed2 < 0 {
		t.Errorf("gating made things worse: %v %v", energy, ed2)
	}
}

func TestDisassembleFacade(t *testing.T) {
	p, err := Assemble(tiny)
	if err != nil {
		t.Fatal(err)
	}
	text := Disassemble(p)
	if !strings.Contains(text, "add") {
		t.Errorf("disassembly missing add:\n%s", text)
	}
}

// TestCompareGatingMatchesSoloRuns: CompareGating's one fused pass gives
// savings bit-identical to two solo Simulate runs, on the programs the
// examples/ gate — an assembled snippet (quickstart), the ijpeg kernel
// under both VRP flavours (imagepipeline), a VRS-specialized m88ksim
// (specialization) and an unmodified kernel under the hardware schemes
// (hwsw) — at train inputs to keep the test quick.
func TestCompareGatingMatchesSoloRuns(t *testing.T) {
	optimize := func(p *Program, o OptimizeOptions) *Program {
		t.Helper()
		opt, err := Optimize(p, o)
		if err != nil {
			t.Fatal(err)
		}
		return opt.Program
	}
	snippet, err := Assemble(tiny)
	if err != nil {
		t.Fatal(err)
	}
	ijpeg := buildWorkload(t, "ijpeg", Train)
	m88k := buildWorkload(t, "m88ksim", Train)
	spec, err := Specialize(m88k, m88k, SpecializeOptions{Threshold: 50})
	if err != nil {
		t.Fatal(err)
	}
	software := []GatingMode{power.GateSoftware}
	cases := []struct {
		name  string
		p     *Program
		modes []GatingMode
	}{
		{"quickstart", optimize(snippet, OptimizeOptions{}), software},
		{"ijpeg/vrp", optimize(ijpeg, OptimizeOptions{}), software},
		{"ijpeg/vrp-conv", optimize(ijpeg, OptimizeOptions{Conventional: true}), software},
		{"m88ksim/vrs50", spec.Program, software},
		{"ijpeg/base", ijpeg, []GatingMode{power.GateHWSize, power.GateHWSignificance}},
	}
	for _, c := range cases {
		for _, mode := range c.modes {
			energy, ed2, err := CompareGating(c.p, mode)
			if err != nil {
				t.Fatal(err)
			}
			base, err := Simulate(c.p, GateNone)
			if err != nil {
				t.Fatal(err)
			}
			g, err := Simulate(c.p, mode)
			if err != nil {
				t.Fatal(err)
			}
			_, wantEnergy := power.Savings(base.Energy, g.Energy)
			wantED2 := power.EnergyDelay2Saving(base.Energy.Total(), base.Cycles, g.Energy.Total(), g.Cycles)
			if math.Float64bits(energy) != math.Float64bits(wantEnergy) || math.Float64bits(ed2) != math.Float64bits(wantED2) {
				t.Errorf("%s mode %v: fused (%v, %v) != solo (%v, %v)", c.name, mode, energy, ed2, wantEnergy, wantED2)
			}
		}
	}
}
