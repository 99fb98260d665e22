package progen

import (
	"testing"

	"opgate/internal/emu"
	"opgate/internal/isa"
	"opgate/internal/vrp"
)

// TestPhasedDeterministic: composites and flips honor the seeding
// contract — the same tuple is byte-identical across calls, and the
// train/ref pair shares one static layout (the vrs.Specialize contract).
func TestPhasedDeterministic(t *testing.T) {
	fams := []Family{Narrow, Wide, Branchy}
	for _, ref := range []bool{false, true} {
		p1, ph1, err := GeneratePhased(fams, 9, Small, ref)
		if err != nil {
			t.Fatal(err)
		}
		p2, ph2, err := GeneratePhased(fams, 9, Small, ref)
		if err != nil {
			t.Fatal(err)
		}
		if !samePrograms(p1, p2) {
			t.Errorf("ref=%v: nondeterministic composite generation", ref)
		}
		if len(ph1) != len(ph2) {
			t.Fatalf("phase counts differ")
		}
		for i := range ph1 {
			if ph1[i] != ph2[i] {
				t.Errorf("phase %d ranges differ: %+v vs %+v", i, ph1[i], ph2[i])
			}
		}
	}
	trainP, _, err := GeneratePhased(fams, 9, Small, false)
	if err != nil {
		t.Fatal(err)
	}
	refP, _, err := GeneratePhased(fams, 9, Small, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(trainP.Ins) != len(refP.Ins) || len(trainP.Data) != len(refP.Data) {
		t.Error("composite train/ref layout contract violated")
	}
	ftr, err := GenerateFlip(3, 9, Small, false)
	if err != nil {
		t.Fatal(err)
	}
	fre, err := GenerateFlip(3, 9, Small, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(ftr.Ins) != len(fre.Ins) || len(ftr.Data) != len(fre.Data) {
		t.Error("flip train/ref layout contract violated")
	}
}

// TestPhasedRanges: the returned phases tile the entry function — they
// start at 0, are contiguous and non-empty, and end before the Halt;
// anything past the last range is deferred callee code (whole
// functions), so the ranges alone attribute every mainline instruction.
func TestPhasedRanges(t *testing.T) {
	for _, fams := range [][]Family{
		{Narrow},
		{Wide, Narrow},
		{Stream, Churn, Pointer, Branchy},
	} {
		p, phases, err := GeneratePhased(fams, 11, Small, false)
		if err != nil {
			t.Fatal(err)
		}
		if len(phases) != len(fams) {
			t.Fatalf("%v: %d phases for %d families", fams, len(phases), len(fams))
		}
		if phases[0].Start != 0 {
			t.Errorf("%v: first phase starts at %d", fams, phases[0].Start)
		}
		for i, ph := range phases {
			if ph.Family != fams[i] {
				t.Errorf("%v: phase %d is %v", fams, i, ph.Family)
			}
			if ph.End <= ph.Start {
				t.Errorf("%v: phase %d range [%d, %d) empty", fams, i, ph.Start, ph.End)
			}
			if i > 0 && ph.Start != phases[i-1].End {
				t.Errorf("%v: phase %d not contiguous (%d after %d)", fams, i, ph.Start, phases[i-1].End)
			}
		}
		// Past the last range: the Halt, then only whole deferred callees.
		last := phases[len(phases)-1].End
		if last >= len(p.Ins) {
			t.Errorf("%v: last phase range %d overruns the program (%d)", fams, last, len(p.Ins))
		}
		entry := p.Funcs[p.Entry]
		if entry.End != last+1 {
			t.Errorf("%v: entry function ends at %d, want last range %d + halt", fams, entry.End, last)
		}
	}
}

// phaseShares emulates a composite and returns each phase's dynamic
// 64-bit share of width-bearing instructions, attributing every retired
// event to the phase whose [Start, End) range holds its static index.
// Events outside every range (a stream phase's deferred callee) are
// counted into the phase that called them — the one whose range holds
// the JSR — by tracking the last in-range phase.
func phaseShares(t *testing.T, p *emu.Machine, phases []Phase) []float64 {
	t.Helper()
	hists := make([]vrp.WidthHistogram, len(phases))
	current := 0
	p.Sink = emu.RecFunc(func(b emu.RecBatch) {
		for r, idx := range b.Idx {
			for i := range phases {
				if int(idx) >= phases[i].Start && int(idx) < phases[i].End {
					current = i
					break
				}
			}
			if vrp.CountsWidth(isa.Op(b.Op[r])) {
				hists[current].Add(isa.Width(b.WBytes[r]), 1)
			}
		}
	})
	if err := p.Run(); err != nil {
		t.Fatal(err)
	}
	shares := make([]float64, len(phases))
	for i := range hists {
		shares[i] = hists[i].Fraction(3)
	}
	return shares
}

// TestPhasedWidthBands: in a composite, every phase individually lands
// inside its family's declared width band — the property that makes
// phase-structured workloads genuinely non-stationary rather than a
// blended average.
func TestPhasedWidthBands(t *testing.T) {
	fams := []Family{Narrow, Wide, Pointer, Branchy, Stream, Churn}
	for _, seed := range []uint64{1, 7, 42} {
		p, phases, err := GeneratePhased(fams, seed, Small, false)
		if err != nil {
			t.Fatal(err)
		}
		shares := phaseShares(t, emu.New(p), phases)
		for i, ph := range phases {
			lo, hi := ph.Family.WidthBand()
			if shares[i] < lo || shares[i] > hi {
				t.Errorf("seed %d phase %d (%v): 64-bit share %.3f outside band [%.2f, %.2f]",
					seed, i, ph.Family, shares[i], lo, hi)
			}
		}
		// The composite genuinely swings across the spectrum: its widest
		// and narrowest phases are separated by more than any single
		// family band allows.
		lo, hi := shares[0], shares[0]
		for _, s := range shares {
			if s < lo {
				lo = s
			}
			if s > hi {
				hi = s
			}
		}
		if hi-lo < 0.3 {
			t.Errorf("seed %d: phase shares span only [%.3f, %.3f] — not non-stationary", seed, lo, hi)
		}
	}
}

// TestFlipCharacter: the width-flip program sits between the pure
// steady states (it must punish any single-state predictor), and both
// arms actually execute — the selector toggles.
func TestFlipCharacter(t *testing.T) {
	for _, seed := range []uint64{1, 7, 42} {
		p, err := GenerateFlip(1, seed, Small, false)
		if err != nil {
			t.Fatal(err)
		}
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
		share := h.Fraction(3)
		nLo, nHi := Narrow.WidthBand()
		wLo, wHi := Wide.WidthBand()
		_, _ = nLo, wHi
		if share <= nHi || share >= 1 {
			t.Errorf("seed %d: flip share %.3f not above the narrow band (%.2f)", seed, share, nHi)
		}
		if h.Fraction(0)+h.Fraction(1) == 0 {
			t.Errorf("seed %d: flip program retired no narrow instructions — narrow arm never ran", seed)
		}
		if share < 0.2 || share > wLo+0.35 {
			t.Errorf("seed %d: flip share %.3f outside the mixed range", seed, share)
		}
	}
}

// TestPhasedErrors: the composite and flip constructors reject invalid
// tuples rather than defaulting.
func TestPhasedErrors(t *testing.T) {
	if _, _, err := GeneratePhased(nil, 1, Small, false); err == nil {
		t.Error("empty phase list accepted")
	}
	if _, _, err := GeneratePhased(make([]Family, MaxPhases+1), 1, Small, false); err == nil {
		t.Error("oversized phase list accepted")
	}
	if _, _, err := GeneratePhased([]Family{Family(99)}, 1, Small, false); err == nil {
		t.Error("unknown family accepted")
	}
	if _, _, err := GeneratePhased([]Family{Narrow}, 1, Class(99), false); err == nil {
		t.Error("unknown class accepted")
	}
	if _, err := GenerateFlip(0, 1, Small, false); err == nil {
		t.Error("zero period accepted")
	}
	if _, err := GenerateFlip(MaxFlipPeriod+1, 1, Small, false); err == nil {
		t.Error("oversized period accepted")
	}
	if _, err := GenerateFlip(2, 1, Class(99), false); err == nil {
		t.Error("unknown class accepted")
	}
	if _, err := ParsePhaseLabel(""); err == nil {
		t.Error("empty label accepted")
	}
	if _, err := ParsePhaseLabel("narrow-quantum"); err == nil {
		t.Error("unknown family in label accepted")
	}
	fams, err := ParsePhaseLabel(PhaseLabel([]Family{Stream, Churn}))
	if err != nil || len(fams) != 2 || fams[0] != Stream || fams[1] != Churn {
		t.Errorf("label round-trip failed: %v, %v", fams, err)
	}
}
