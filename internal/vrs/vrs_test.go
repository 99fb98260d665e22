package vrs

import (
	"reflect"
	"testing"

	"opgate/internal/emu"
	"opgate/internal/isa"
	"opgate/internal/prog"
	"opgate/internal/vrp"
	"opgate/internal/workload"
)

func specializeWorkload(t *testing.T, name string, threshold float64) *Result {
	t.Helper()
	w, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	trainP, err := w.Build(workload.Train)
	if err != nil {
		t.Fatal(err)
	}
	refP, err := w.Build(workload.Ref)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Specialize(trainP, refP, Options{Threshold: threshold})
	if err != nil {
		t.Fatalf("specialize %s: %v", name, err)
	}
	return res
}

// TestSpecializeEquivalence is the load-bearing correctness test: the
// transformed, re-encoded binary must behave identically to the original
// on the reference input for every kernel.
func TestSpecializeEquivalence(t *testing.T) {
	for _, w := range workload.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			res := specializeWorkload(t, w.Name, 50)
			if err := emu.CheckEquivalence(res.Original, res.Transformed); err != nil {
				t.Fatalf("transformed: %v", err)
			}
			if err := emu.CheckEquivalence(res.Original, res.Apply()); err != nil {
				t.Fatalf("transformed+widths: %v", err)
			}
		})
	}
}

// TestSpecializationHappens checks that the interpreter-style kernels
// (whose wide loads carry narrow dynamic values) actually get specialized.
func TestSpecializationHappens(t *testing.T) {
	specializedSomewhere := false
	for _, name := range []string{"gcc", "m88ksim", "li", "perl"} {
		res := specializeWorkload(t, name, 50)
		t.Logf("%s: %d profiled points, %d specialized, %d static specialized ins, %d eliminated",
			name, len(res.Points), res.NumSpecialized(), res.StaticSpecialized, res.StaticEliminated)
		if res.NumSpecialized() > 0 {
			specializedSomewhere = true
			if res.StaticSpecialized == 0 {
				t.Errorf("%s: specialized points but no cloned instructions", name)
			}
		}
	}
	if !specializedSomewhere {
		t.Fatal("no kernel specialized any point — VRS is inert")
	}
}

// TestThresholdMonotonicity reproduces Fig. 8's parameter: lowering the
// specialization threshold can only increase (or keep) the number of
// specialized points.
func TestThresholdMonotonicity(t *testing.T) {
	prev := -1
	for _, th := range []float64{110, 90, 70, 50, 30} {
		total := 0
		for _, name := range []string{"gcc", "m88ksim", "perl"} {
			res := specializeWorkload(t, name, th)
			total += res.NumSpecialized()
		}
		if prev >= 0 && total < prev {
			t.Errorf("threshold %v: %d specialized, fewer than the higher threshold's %d", th, total, prev)
		}
		prev = total
	}
}

// TestVRSReducesWork checks the effect behind Fig. 10: across the suite,
// the specialized binaries execute fewer dynamic instructions than the
// VRP-only binaries (the single-value clones eliminate the folded checks,
// outweighing the inserted guards), and at least one kernel eliminates
// instructions statically (Fig. 5's m88ksim/vortex effect).
func TestVRSReducesWork(t *testing.T) {
	var vrpDyn, vrsDyn int64
	eliminated := 0
	for _, w := range workload.All() {
		refP, err := w.Build(workload.Ref)
		if err != nil {
			t.Fatal(err)
		}
		rv, err := vrp.Analyze(refP, vrp.Options{Mode: vrp.Useful})
		if err != nil {
			t.Fatal(err)
		}
		r1, err := emu.Execute(rv.Apply())
		if err != nil {
			t.Fatal(err)
		}
		vrpDyn += r1.Dyn

		res := specializeWorkload(t, w.Name, 50)
		r2, err := emu.Execute(res.Apply())
		if err != nil {
			t.Fatal(err)
		}
		vrsDyn += r2.Dyn
		eliminated += res.StaticEliminated
	}
	t.Logf("suite dynamic instructions: VRP %d, VRS %d", vrpDyn, vrsDyn)
	if vrsDyn >= vrpDyn {
		t.Errorf("VRS executed more instructions (%d) than VRP (%d)", vrsDyn, vrpDyn)
	}
	if eliminated == 0 {
		t.Error("no kernel eliminated instructions via single-value specialization")
	}
}

// addDynamicHistogram runs p and tallies the widths of the retired
// width-bearing instructions into h.
func addDynamicHistogram(t *testing.T, h *vrp.WidthHistogram, p *prog.Program) {
	t.Helper()
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
}

// TestNoPickSelectReusesBaseline: when Select specializes nothing, the
// transformed program is the reference binary and its final analysis is
// the profile's baseline itself, not a re-derivation — and that baseline
// is exactly what a fresh analysis of the binary yields, so the result
// reads as it did when the analysis was re-run.
func TestNoPickSelectReusesBaseline(t *testing.T) {
	noPicks := 0
	for _, w := range workload.All() {
		trainP, err := w.Build(workload.Train)
		if err != nil {
			t.Fatal(err)
		}
		refP, err := w.Build(workload.Ref)
		if err != nil {
			t.Fatal(err)
		}
		pf, err := NewProfile(trainP, refP, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if pf.NumCandidates() == 0 {
			continue // Select's no-candidate path; not the one under test
		}
		res, err := pf.Select(110)
		if err != nil {
			t.Fatal(err)
		}
		if res.NumSpecialized() > 0 {
			continue
		}
		noPicks++
		if res.FinalVRP != pf.base || res.Transformed != refP {
			t.Fatalf("%s: a no-pick Select did not reuse the baseline analysis", w.Name)
		}
		fresh, err := vrp.Analyze(refP, analysis)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res.FinalVRP, fresh) {
			t.Fatalf("%s: baseline analysis differs from a fresh analysis of the same binary", w.Name)
		}
		if got, want := res.Apply().Ins, fresh.Apply().Ins; !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: no-pick Select applies different widths than a fresh analysis", w.Name)
		}
	}
	if noPicks == 0 {
		t.Fatal("no workload took the no-pick path at threshold 110; the test proves nothing")
	}
}

// TestProfileCountsAreTheRecordStream: the block profile NewProfile reads
// from its profiler sink is the record stream's per-instruction tally —
// one record per retired instruction, HALT included — so its counts equal
// a separate run's tally of record indices and sum to that run's Dyn.
func TestProfileCountsAreTheRecordStream(t *testing.T) {
	for _, w := range workload.All() {
		trainP, err := w.Build(workload.Train)
		if err != nil {
			t.Fatal(err)
		}
		refP, err := w.Build(workload.Ref)
		if err != nil {
			t.Fatal(err)
		}
		pf, err := NewProfile(trainP, refP, Options{})
		if err != nil {
			t.Fatal(err)
		}
		tally := make([]int64, len(trainP.Ins))
		m := emu.New(trainP)
		m.Sink = emu.RecFunc(func(b emu.RecBatch) {
			for _, idx := range b.Idx {
				tally[idx]++
			}
		})
		err = m.Run()
		m.Release()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(pf.Counts(), tally) {
			t.Fatalf("%s: profile counts differ from the record stream's tally", w.Name)
		}
		var sum int64
		for _, c := range pf.Counts() {
			sum += c
		}
		if sum != m.Dyn {
			t.Fatalf("%s: profile counts sum to %d, the train run retired %d", w.Name, sum, m.Dyn)
		}
	}
}
