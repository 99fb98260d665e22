package difftest

import (
	"testing"

	"opgate/internal/progen"
	"opgate/internal/workload"
)

// seedsPerFamily × NumFamilies is the CI differential sweep size; the
// acceptance floor is 100 seeds.
const seedsPerFamily = 17

// TestDifferentialSeedSweep: the substrate invariants (Run == Step ==
// Replay, identical architectural outcomes) hold across a 100+-seed grid
// of generated programs, on both input variants of every generation.
func TestDifferentialSeedSweep(t *testing.T) {
	for _, f := range progen.Families() {
		f := f
		t.Run(f.String(), func(t *testing.T) {
			t.Parallel()
			for seed := uint64(1); seed <= seedsPerFamily; seed++ {
				if err := Check(f, seed, progen.Small); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestDifferentialClasses: the same invariants hold at the larger size
// classes (fewer seeds — the programs are an order of magnitude longer).
func TestDifferentialClasses(t *testing.T) {
	if testing.Short() {
		t.Skip("large classes skipped in -short mode")
	}
	for _, f := range progen.Families() {
		f := f
		t.Run(f.String(), func(t *testing.T) {
			t.Parallel()
			if err := Check(f, 23, progen.Medium); err != nil {
				t.Fatal(err)
			}
			if err := Check(f, 23, progen.Large); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestDifferentialPhasedSweep: the substrate invariants hold across the
// non-stationary program space — phase composites pairing every family
// with its width-spectrum opposite, and the adversarial width-flip
// family over a period grid.
func TestDifferentialPhasedSweep(t *testing.T) {
	t.Run("phase", func(t *testing.T) {
		t.Parallel()
		for _, f := range progen.Families() {
			opposite := progen.Wide
			if f == progen.Wide || f == progen.Pointer {
				opposite = progen.Narrow
			}
			for seed := uint64(1); seed <= 3; seed++ {
				if err := CheckPhased([]progen.Family{f, opposite}, seed, progen.Small); err != nil {
					t.Fatal(err)
				}
			}
		}
		// A triple composite exercises more than pairwise stitching.
		if err := CheckPhased([]progen.Family{progen.Narrow, progen.Wide, progen.Branchy}, 5, progen.Small); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("flip", func(t *testing.T) {
		t.Parallel()
		for _, period := range []int{1, 2, 7, 64} {
			for seed := uint64(1); seed <= 3; seed++ {
				if err := CheckFlip(period, seed, progen.Small); err != nil {
					t.Fatal(err)
				}
			}
		}
	})
}

// TestKernelRewritesKeepBasePath: the rewrite path premise holds on the
// eight kernels, on train and ref inputs — the binaries the evaluation
// histograms from their base binaries' record profiles.
func TestKernelRewritesKeepBasePath(t *testing.T) {
	for _, w := range workload.All() {
		for _, class := range []workload.InputClass{workload.Train, workload.Ref} {
			p, err := w.Build(class)
			if err != nil {
				t.Fatal(err)
			}
			if err := CheckRewrites(p); err != nil {
				t.Errorf("%s/%v: %v", w.Name, class, err)
			}
		}
	}
}

// TestFusedModesSmoke: the fused-accounting invariant holds on a
// generated program from each end of the width spectrum, on a phase
// composite spanning both ends, and on the width-flip family (the full
// family × class property matrix lives in the harness tests).
func TestFusedModesSmoke(t *testing.T) {
	for _, f := range []progen.Family{progen.Narrow, progen.Wide} {
		p, err := progen.Generate(f, 3, progen.Small, false)
		if err != nil {
			t.Fatal(err)
		}
		if err := CheckFusedModes(p); err != nil {
			t.Fatalf("%v: %v", f, err)
		}
	}
	p, _, err := progen.GeneratePhased([]progen.Family{progen.Narrow, progen.Wide}, 3, progen.Small, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckFusedModes(p); err != nil {
		t.Fatalf("phase/narrow-wide: %v", err)
	}
	fp, err := progen.GenerateFlip(2, 3, progen.Small, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckFusedModes(fp); err != nil {
		t.Fatalf("flip/2: %v", err)
	}
}

// TestCheckRejectsBadInputs: the generator's argument validation reaches
// the differential entry point.
func TestCheckRejectsBadInputs(t *testing.T) {
	if err := Check(progen.Family(99), 1, progen.Small); err == nil {
		t.Error("Check accepted an unknown family")
	}
}
