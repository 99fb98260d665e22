package vrs

import (
	"sort"

	"opgate/internal/emu"
	"opgate/internal/interval"
	"opgate/internal/isa"
	"opgate/internal/power"
	"opgate/internal/prog"
	"opgate/internal/vrp"
)

// guardCost returns the per-execution energy of the guard for a range,
// per §3.2: "each instruction needed in the test is given an energy
// requirement in relation to its instruction-type". We price the test
// instructions with the same datapath energies the savings side uses: a
// comparison against an unconstrained register is a full-width operation,
// a branch moves one byte of condition. (Our guard uses a second branch
// where the paper uses an AND; the energy class is the same.)
//
// Pricing guards honestly — instead of nominal 1 nJ constants — means only
// specializations whose clones genuinely save more than the tests burn
// survive, which concentrates VRS on the instruction-eliminating
// single-value points; that is where the paper's own Fig. 5 found the
// action (m88ksim and vortex "eliminate almost all the specialized
// instructions").
func guardCost(params power.Params, min, max int64) float64 {
	cmpCost := power.OpEnergy(params, 8)
	brCost := power.OpEnergy(params, 1)
	if min == max {
		return cmpCost + brCost
	}
	return 2*cmpCost + 2*brCost
}

// candidate is a prospective specialization point before value profiling.
type candidate struct {
	InsIdx int
	Count  int64
	Best   float64 // optimistic savings (result narrowed to one byte)
}

// profilable lists the instructions of p that could become candidates
// whatever their execution counts: only value-producing instructions of
// a class whose narrower output saves energy downstream, and whose
// statically known width is still wide, can benefit (§3.3).
func profilable(p *prog.Program, base *vrp.Result) []int {
	var out []int
	for i := range p.Ins {
		in := &p.Ins[i]
		if _, ok := in.Dest(); !ok {
			continue
		}
		switch isa.ClassOf(in.Op) {
		case isa.ClassLoad, isa.ClassAdd, isa.ClassSub, isa.ClassMul,
			isa.ClassLogic, isa.ClassShift, isa.ClassMask:
			if effectiveBytes(base, i) > 1 {
				out = append(out, i)
			}
		}
	}
	return out
}

// findCandidates implements §3.3 over static, the profilable
// instructions: those whose downstream energy would shrink if their
// output range were narrower, filtered by a preliminary benefit analysis
// that assumes the minimum possible cost (a single comparison) and the
// maximum possible narrowing.
func findCandidates(p *prog.Program, base *vrp.Result, static []int, counts []int64, opts Options) []candidate {
	var out []candidate
	// The paper's preliminary filter assumes the minimum possible cost: a
	// single comparison per execution of the candidate.
	minCostPerExec := power.OpEnergy(opts.Power, 1)

	for _, i := range static {
		if counts[i] == 0 {
			continue
		}
		// Optimistic savings: the output becomes a single byte (and, if
		// it turns out to be a single value, foldable consumers vanish).
		best := savingsEstimate(p, base, i, 1, counts, 0) + foldBonus(p, base, i, counts)
		if best <= float64(counts[i])*minCostPerExec {
			continue
		}
		out = append(out, candidate{InsIdx: i, Count: counts[i], Best: best})
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Best > out[b].Best })
	// Profiling every instruction would be absurd (§3.3's point); keep
	// the most promising ones.
	const maxProfiled = 64
	if len(out) > maxProfiled {
		out = out[:maxProfiled]
	}
	return out
}

// effectiveBytes is the width (in bytes) the baseline analysis already
// assigns to instruction i's value.
func effectiveBytes(base *vrp.Result, i int) int {
	b := base.Width[i].Bytes()
	if !base.ResRange[i].IsEmpty() && base.ResRange[i].Bytes() < b {
		b = base.ResRange[i].Bytes()
	}
	return b
}

// savingsEstimate implements the paper's Savings(I,r,min,max) recursion
// (§3.1): the energy saved across the instructions that consume I's
// output, when that output narrows to newBytes. For each dependent
// instruction D, the saving is InstCount(D) × the Table 1 energy delta
// between D's current width and its width with the narrowed input; the
// recursion then descends into D's own consumers (depth-limited).
func savingsEstimate(p *prog.Program, base *vrp.Result, defIdx, newBytes int, counts []int64, depth int) float64 {
	if depth > 3 {
		return 0
	}
	f := p.FuncOf(defIdx)
	if f == nil {
		return 0
	}
	du := base.DefUse[f.Index]
	var total float64
	for _, useIdx := range du.Uses(defIdx) {
		u := &p.Ins[useIdx]
		if _, ok := u.Dest(); !ok {
			continue
		}
		switch isa.ClassOf(u.Op) {
		case isa.ClassAdd, isa.ClassSub, isa.ClassMul, isa.ClassLogic,
			isa.ClassShift, isa.ClassCmp, isa.ClassCmov:
		default:
			continue
		}
		oldBytes := effectiveBytes(base, useIdx)
		// With one input narrowed, the consumer's width drops to at
		// most max(newBytes, other input's width) — approximated with
		// the narrowed input dominating when it was the wide one.
		proj := maxInt(newBytes, otherInputBytes(p, base, useIdx, defIdx))
		if proj >= oldBytes {
			continue
		}
		total += float64(counts[useIdx]) * energyDelta(oldBytes, proj)
		total += savingsEstimate(p, base, useIdx, proj, counts, depth+1)
	}
	return total
}

// energyDelta is the per-execution saving for narrowing an ALU-class
// operation from oldBytes to newBytes: the full datapath delta (§3.1's
// empirically observed per-instruction-type energies — the instruction
// queue, register file, buses and functional unit all shrink with the
// operand width, not just the Table 1 ALU component).
func energyDelta(oldBytes, newBytes int) float64 {
	return power.OpSavingsDelta(power.DefaultParams(), oldBytes, newBytes)
}

// foldBonus estimates the energy of consumers that constant propagation
// can remove entirely when the specialized value is a single constant:
// ALU/compare consumers whose other operand is an immediate fold to
// constants, and conditional branches on the value (or on a folded
// compare) disappear.
func foldBonus(p *prog.Program, base *vrp.Result, defIdx int, counts []int64) float64 {
	f := p.FuncOf(defIdx)
	if f == nil {
		return 0
	}
	du := base.DefUse[f.Index]
	params := power.DefaultParams()
	var total float64
	for _, useIdx := range du.Uses(defIdx) {
		u := &p.Ins[useIdx]
		if isa.IsCondBranch(u.Op) {
			// The branch itself folds away.
			total += float64(counts[useIdx]) * power.OpEnergy(params, 1)
			continue
		}
		if _, ok := u.Dest(); !ok {
			continue
		}
		if !u.HasImm {
			continue
		}
		switch isa.ClassOf(u.Op) {
		case isa.ClassAdd, isa.ClassSub, isa.ClassMul, isa.ClassLogic,
			isa.ClassShift, isa.ClassCmp:
			// Folds to a constant and is then dead-code eliminated: the
			// whole execution disappears, and any branch it feeds folds
			// too.
			old := effectiveBytes(base, useIdx)
			total += float64(counts[useIdx]) * power.OpEnergy(params, old)
			for _, bIdx := range du.Uses(useIdx) {
				if isa.IsCondBranch(p.Ins[bIdx].Op) {
					total += float64(counts[bIdx]) * power.OpEnergy(params, 1)
				}
			}
		}
	}
	return total
}

// otherInputBytes returns the significant bytes of the consumer's other
// register input (8 when unknown).
func otherInputBytes(p *prog.Program, base *vrp.Result, useIdx, defIdx int) int {
	u := &p.Ins[useIdx]
	f := p.FuncOf(useIdx)
	du := base.DefUse[f.Index]
	best := 1
	uses, n := u.Uses()
	for k := 0; k < n; k++ {
		reg := uses[k]
		if reg == isa.ZeroReg {
			continue
		}
		// Is this operand fed (solely) by defIdx?
		defs := du.ReachingDefs(useIdx, reg)
		solo := len(defs) == 1 && defs[0] == defIdx
		if solo {
			continue
		}
		var iv interval.Interval
		if k == 0 {
			iv = base.RaRange[useIdx]
		} else {
			iv = base.RbRange[useIdx]
		}
		b := 8
		if !iv.IsEmpty() {
			b = iv.Bytes()
		}
		if b > best {
			best = b
		}
	}
	if u.HasImm {
		ib := interval.Const(u.Imm).Bytes()
		if ib > best {
			best = ib
		}
	}
	return best
}

// score implements §3.4's first step up to the threshold: with profiled
// value ranges in hand, compute Savings·Freq − Cost for every candidate.
// It returns every candidate's point, in candidate order, and the scored
// ones. A candidate with no table, no coverage range or a profile no
// narrower than its static range is not scored: no threshold makes it
// profitable, and its Benefit is 0 at every threshold.
func score(p *prog.Program, base *vrp.Result, cands []candidate, prof *emu.Profiler, opts Options) ([]Point, []rankedIdx) {
	counts := prof.Counts
	points := make([]Point, 0, len(cands))
	var scored []rankedIdx
	for _, c := range cands {
		pt := Point{InsIdx: c.InsIdx, Count: c.Count, Outcome: NoBenefit}
		table := prof.Points[c.InsIdx]
		if table == nil || table.Total == 0 {
			points = append(points, pt)
			continue
		}
		min, max, freq, ok := table.CoverageRange(coverage)
		if !ok {
			points = append(points, pt)
			continue
		}
		newBytes := interval.New(minI64(min, max), maxI64(min, max)).Bytes()
		cur := effectiveBytes(base, c.InsIdx)
		pt.Min, pt.Max, pt.Freq = min, max, freq
		if newBytes >= cur {
			points = append(points, pt) // profile isn't narrower than statics
			continue
		}
		pt.Savings = savingsEstimate(p, base, c.InsIdx, newBytes, counts, 0)
		if min == max {
			// Single-value specialization also eliminates instructions
			// outright via constant propagation (Fig. 5): every
			// immediately-foldable consumer saves its whole execution.
			pt.Savings += foldBonus(p, base, c.InsIdx, counts)
		}
		pt.Cost = float64(counts[c.InsIdx]) * guardCost(opts.Power, min, max)
		scored = append(scored, rankedIdx{len(points), pt.Savings*freq - pt.Cost})
		points = append(points, pt)
	}
	return points, scored
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func minI64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
