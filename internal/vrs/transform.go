package vrs

import (
	"fmt"
	"sync/atomic"

	"opgate/internal/isa"
	"opgate/internal/prog"
	"opgate/internal/vrp"
)

// transforms counts transform calls: the cost probe of Profile's
// per-prefix memo.
var transforms atomic.Int64

// maxRegionIns caps the size of a cloned region (static code growth per
// specialization point).
const maxRegionIns = 64

// regionEnd extends the specialization region from the defining block
// through contiguous, dominated following blocks. Within a loop, the
// region stays inside the loop (the back edge re-executes the guard);
// outside, it extends through the dominated straight-line continuation.
func regionEnd(f *prog.Func, blk *prog.Block, defIdx int) int {
	end := blk.End
	loop := blk.Loop
	for {
		if end-defIdx-1 >= maxRegionIns {
			return end
		}
		next := f.BlockOf(end)
		if next == nil || next.Start != end {
			return end
		}
		if loop != nil && !loop.Contains(next) {
			return end
		}
		if !prog.Dominates(blk, next) {
			return end
		}
		if next.End-defIdx-1 > maxRegionIns {
			return end
		}
		end = next.End
	}
}

// chosenRegion records one applied specialization during the transform.
type chosenRegion struct {
	start, end int // original-index span covered (definition..region end)
	guards     []*prog.Node
	clones     map[int]*prog.Node
	point      *Point
}

// transform implements §3.4's code transformation: for each profitable
// point in picks (in benefit order), clone the region the point
// dominates, insert the (x>=min && x<=max) guard selecting between the
// original and the specialized copy, and — after rebuilding — run
// constant propagation and dead-code elimination inside single-value
// clones, followed by a final VRP pass that narrows the clones through
// the guards' branch refinement. It records each pick's Outcome and
// region in place; each decision depends only on earlier picks. The
// result's Points are left to the caller.
func transform(p *prog.Program, base *vrp.Result, picks []*Point, counts []int64) (*Result, error) {
	transforms.Add(1)
	ed := prog.NewEditor(p)
	res := &Result{
		Original: p,
		GuardIns: map[int]bool{},
		SpecIns:  map[int]bool{},
	}

	var picked []chosenRegion

	overlaps := func(a, b int) bool {
		for _, c := range picked {
			if a < c.end && b > c.start {
				return true
			}
		}
		return false
	}

	for _, pt := range picks {
		f := p.FuncOf(pt.InsIdx)
		if f == nil {
			continue
		}
		blk := f.BlockOf(pt.InsIdx)
		if blk == nil {
			continue
		}
		// Region: the code dominated by the definition — the rest of its
		// basic block, extended through contiguous following blocks of
		// the same loop (or function) that the defining block dominates,
		// so the region has a single entry at the guard. The paper
		// "duplicates the regions of code that are affected by the
		// specialization"; a dominated loop-body suffix is exactly the
		// code whose ranges the specialized value can narrow, and it
		// amortises the guard over many instructions.
		start, end := pt.InsIdx+1, regionEnd(f, blk, pt.InsIdx)
		if end-start < 2 {
			pt.Outcome = NoBenefit
			continue
		}
		if overlaps(pt.InsIdx, end) {
			pt.Outcome = Subsumed // inside/overlapping another point's region
			continue
		}
		// Runtime-overhead filter: the guard executes once per definition;
		// it must be small against the dynamic weight of the region it
		// selects, or the added instructions swamp the gating benefit
		// (the paper's comparisons stay near 1% of executed instructions,
		// Fig. 6).
		guardLen := int64(4)
		if pt.Min == pt.Max {
			guardLen = 2
		}
		var regionDyn int64
		for i := start; i < end; i++ {
			regionDyn += counts[i]
		}
		if float64(guardLen*counts[pt.InsIdx]) > 0.35*float64(regionDyn) {
			pt.Outcome = NoBenefit
			continue
		}

		entry, mapping, err := ed.CloneRange(f.Index, start, end)
		if err != nil {
			return nil, fmt.Errorf("vrs: clone for point %d: %w", pt.InsIdx, err)
		}
		// Guard before the original region start, after the defining
		// instruction (no incoming branches can target mid-block, so a
		// plain sequential insert is safe).
		anchor := ed.NodeAt(start)
		reg := p.Ins[pt.InsIdx].Rd
		var guards []*prog.Node
		if pt.Min == pt.Max {
			// cmpeq t, r, #min ; bne t, clone
			g1 := ed.InsertBeforeNoRedirect(anchor, isa.Instruction{
				Op: isa.OpCMPEQ, Width: isa.W64, Rd: prog.RegScratch, Ra: reg, Imm: pt.Min, HasImm: true,
			})
			g2 := ed.InsertBeforeNoRedirect(anchor, isa.Instruction{
				Op: isa.OpBNE, Ra: prog.RegScratch,
			})
			ed.SetTarget(g2, entry)
			guards = []*prog.Node{g1, g2}
		} else {
			// cmplt t, r, #min ; bne t, original
			// cmple t, r, #max ; bne t, clone
			g1 := ed.InsertBeforeNoRedirect(anchor, isa.Instruction{
				Op: isa.OpCMPLT, Width: isa.W64, Rd: prog.RegScratch, Ra: reg, Imm: pt.Min, HasImm: true,
			})
			g2 := ed.InsertBeforeNoRedirect(anchor, isa.Instruction{
				Op: isa.OpBNE, Ra: prog.RegScratch,
			})
			ed.SetTarget(g2, anchor)
			g3 := ed.InsertBeforeNoRedirect(anchor, isa.Instruction{
				Op: isa.OpCMPLE, Width: isa.W64, Rd: prog.RegScratch, Ra: reg, Imm: pt.Max, HasImm: true,
			})
			g4 := ed.InsertBeforeNoRedirect(anchor, isa.Instruction{
				Op: isa.OpBNE, Ra: prog.RegScratch,
			})
			ed.SetTarget(g4, entry)
			guards = []*prog.Node{g1, g2, g3, g4}
		}
		pt.Outcome = Specialized
		pt.RegionStart, pt.RegionEnd = start, end
		picked = append(picked, chosenRegion{start: pt.InsIdx, end: end, guards: guards, clones: mapping, point: pt})
	}

	if len(picked) == 0 {
		// Nothing was transformed: the final analysis is the baseline one,
		// already computed over p with the same options.
		res.Transformed = p
		res.FinalVRP = base
		return res, nil
	}

	// Single-value clones: constant-propagate the specialized register
	// through the clone and fold what becomes constant (the paper:
	// "specializing for a given value and applying constant propagation").
	eliminatedBranches := 0
	for _, c := range picked {
		if c.point.Min != c.point.Max {
			continue
		}
		eliminatedBranches += constPropClone(ed, p, c.point, c.clones)
	}

	q, err := ed.Build()
	if err != nil {
		return nil, fmt.Errorf("vrs: rebuild: %w", err)
	}

	// Dead-code elimination inside the clones, driven by real def-use
	// chains on the rebuilt program (which include the full-width
	// pseudo-uses at calls and returns, so a def with no recorded use is
	// genuinely dead). Iterate: deleting one instruction can kill the
	// uses of another.
	eliminated := 0
	for iter := 0; iter < 4; iter++ {
		nodeIdx := indexNodes(ed, q)
		dead := deadCloneNodes(ed, q, picked, nodeIdx)
		if len(dead) == 0 {
			break
		}
		for _, n := range dead {
			ed.Delete(n)
			eliminated++
		}
		q, err = ed.Build()
		if err != nil {
			return nil, fmt.Errorf("vrs: rebuild after DCE: %w", err)
		}
	}

	// Final analysis: the guards' compare+branch shapes let VRP narrow
	// the clones via ordinary branch refinement.
	final, err := vrp.Analyze(q, analysis)
	if err != nil {
		return nil, fmt.Errorf("vrs: final VRP: %w", err)
	}

	// Map guard/clone nodes to their indices in the rebuilt program.
	nodeIdx := indexNodes(ed, q)
	for _, c := range picked {
		clones := 0
		for _, n := range c.clones {
			if idx, ok := nodeIdx[n]; ok {
				res.SpecIns[idx] = true
				clones++
			}
		}
		for _, g := range c.guards {
			if idx, ok := nodeIdx[g]; ok {
				res.GuardIns[idx] = true
			}
		}
		res.StaticSpecialized += clones + len(c.guards)
	}
	res.StaticEliminated = eliminated + eliminatedBranches
	res.Transformed = q
	res.FinalVRP = final
	return res, nil
}

// constPropClone replaces clone instructions with constant loads where
// the specialized register's single (guard-established) value decides
// them, and folds conditional branches whose condition becomes constant
// (taken → unconditional; not-taken → deleted). This is the elimination
// effect of Fig. 5: "a consequence of specializing for a given value and
// applying constant propagation".
//
// Soundness across control flow: the constant environment is only valid
// along straight-line execution, so it resets at every original block
// leader inside the region to just the guard-established constant (and
// drops even that once the specialized register is redefined).
func constPropClone(ed *prog.Editor, p *prog.Program, pt *Point, clones map[int]*prog.Node) (deleted int) {
	reg := p.Ins[pt.InsIdx].Rd
	f := p.FuncOf(pt.InsIdx)

	idxs := make([]int, 0, len(clones))
	for i := range clones {
		idxs = append(idxs, i)
	}
	sortInts(idxs)

	// Is the specialized register redefined anywhere in the region? If
	// so its constant is only valid up to that point of the layout walk.
	regValid := true
	consts := map[isa.Reg]int64{reg: pt.Min}

	for _, i := range idxs {
		n := clones[i]
		if blk := f.BlockOf(i); blk != nil && blk.Start == i {
			// Block leader: joins may merge paths; keep only the
			// region-wide guard constant.
			consts = map[isa.Reg]int64{}
			if regValid {
				consts[reg] = pt.Min
			}
		}
		in := &n.Ins
		// Fold a conditional branch on a known-constant condition.
		if isa.IsCondBranch(in.Op) {
			if v, ok := consts[in.Ra]; ok || in.Ra == isa.ZeroReg {
				if in.Ra == isa.ZeroReg {
					v = 0
				}
				if branchTaken(in.Op, v) {
					ed.Replace(n, isa.Instruction{Op: isa.OpBR, Target: in.Target})
				} else {
					ed.Delete(n)
					deleted++
				}
			}
			continue
		}
		d, hasDest := in.Dest()
		if !hasDest {
			continue
		}
		if folded, val, ok := foldConst(in, consts); ok {
			ed.Replace(n, folded)
			consts[d] = val
			if d == reg {
				regValid = val == pt.Min
			}
			continue
		}
		delete(consts, d)
		if d == reg {
			regValid = false
		}
	}
	return deleted
}

// branchTaken decides a conditional branch with a constant condition.
func branchTaken(op isa.Op, v int64) bool {
	switch op {
	case isa.OpBEQ:
		return v == 0
	case isa.OpBNE:
		return v != 0
	case isa.OpBLT:
		return v < 0
	case isa.OpBGE:
		return v >= 0
	case isa.OpBGT:
		return v > 0
	case isa.OpBLE:
		return v <= 0
	}
	return false
}

// deadCloneNodes returns clone instructions whose destinations have no
// remaining uses. Only side-effect-free value producers are candidates;
// memory operations, control flow and OUT always stay.
func deadCloneNodes(ed *prog.Editor, q *prog.Program, picked []chosenRegion, nodeIdx map[*prog.Node]int) []*prog.Node {
	duByFunc := make(map[int]*prog.DefUse)
	var dead []*prog.Node
	for _, c := range picked {
		for _, n := range c.clones {
			idx, ok := nodeIdx[n]
			if !ok {
				continue
			}
			in := &q.Ins[idx]
			if _, hasDest := in.Dest(); !hasDest {
				continue
			}
			switch isa.ClassOf(in.Op) {
			case isa.ClassLoad, isa.ClassStore, isa.ClassBranch, isa.ClassOther:
				continue
			}
			f := q.FuncOf(idx)
			du := duByFunc[f.Index]
			if du == nil {
				du = prog.BuildDefUse(q, f)
				duByFunc[f.Index] = du
			}
			if len(du.Uses(idx)) == 0 {
				dead = append(dead, n)
			}
		}
	}
	return dead
}

// foldConst evaluates an instruction whose inputs are known constants.
func foldConst(in *isa.Instruction, consts map[isa.Reg]int64) (isa.Instruction, int64, bool) {
	get := func(r isa.Reg) (int64, bool) {
		if r == isa.ZeroReg {
			return 0, true
		}
		v, ok := consts[r]
		return v, ok
	}
	a, okA := get(in.Ra)
	if !okA {
		return isa.Instruction{}, 0, false
	}
	b := in.Imm
	okB := in.HasImm || in.Op == isa.OpLDA // LDA reads only Ra and Imm
	if !okB {
		b, okB = get(in.Rb)
	}
	if !okB {
		return isa.Instruction{}, 0, false
	}
	var v int64
	switch in.Op {
	case isa.OpADD, isa.OpLDA:
		if in.Op == isa.OpLDA {
			v = a + in.Imm
		} else {
			v = a + b
		}
	case isa.OpSUB:
		v = a - b
	case isa.OpMUL:
		v = a * b
	case isa.OpAND:
		v = a & b
	case isa.OpOR:
		v = a | b
	case isa.OpXOR:
		v = a ^ b
	case isa.OpBIC:
		v = a &^ b
	case isa.OpSLL:
		v = a << uint(b&63)
	case isa.OpSRL:
		v = int64(uint64(a) >> uint(b&63))
	case isa.OpSRA:
		v = a >> uint(b&63)
	case isa.OpCMPEQ:
		v = b2i(a == b)
	case isa.OpCMPLT:
		v = b2i(a < b)
	case isa.OpCMPLE:
		v = b2i(a <= b)
	case isa.OpCMPULT:
		v = b2i(uint64(a) < uint64(b))
	case isa.OpCMPULE:
		v = b2i(uint64(a) <= uint64(b))
	default:
		return isa.Instruction{}, 0, false
	}
	// Honour the op's width truncation.
	shift := uint(64 - in.Width.Bits())
	v = v << shift >> shift
	if v < -(1<<31) || v > 1<<31-1 {
		return isa.Instruction{}, 0, false // does not fit LDA's immediate
	}
	return isa.Instruction{Op: isa.OpLDA, Width: isa.W64, Rd: in.Rd, Ra: isa.ZeroReg, Imm: v}, v, true
}

// indexNodes maps editor nodes to their instruction indices in the built
// program by re-walking the editor's layout.
func indexNodes(ed *prog.Editor, q *prog.Program) map[*prog.Node]int {
	out := make(map[*prog.Node]int)
	idx := 0
	ed.Walk(func(n *prog.Node, deleted bool) {
		if deleted {
			return
		}
		out[n] = idx
		idx++
	})
	if idx != len(q.Ins) {
		panic("vrs: node walk out of sync with built program")
	}
	return out
}

func sortInts(s []int) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
