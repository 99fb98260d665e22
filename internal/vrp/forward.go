package vrp

import (
	"math"
	"sort"

	"opgate/internal/interval"
	"opgate/internal/isa"
	"opgate/internal/prog"
)

// state holds every register's value range at a program point; Top means
// unknown. The zero register and the pinned global pointer are resolved
// by get, never stored: their entries stay Top.
type state [isa.NumRegs]interval.Interval

// unknownState is the state with every register Top.
var unknownState = func() (s state) {
	for i := range s {
		s[i] = interval.Top()
	}
	return s
}()

func (r *Result) get(s *state, reg isa.Reg) interval.Interval {
	switch reg {
	case isa.ZeroReg:
		return interval.Const(0)
	case prog.RegGP:
		return interval.Const(r.Prog.DataBase)
	}
	return s[reg]
}

func (s *state) set(reg isa.Reg, iv interval.Interval) {
	if reg == isa.ZeroReg || reg == prog.RegGP {
		return
	}
	s[reg] = iv
}

// join unions o into s register by register; Top absorbs anything.
func (s *state) join(o *state) {
	for r := range s {
		s[r] = s[r].Join(o[r])
	}
}

func statesEqual(a, b *state) bool {
	for r := range a {
		if !a[r].Equal(b[r]) {
			return false
		}
	}
	return true
}

// widenState accelerates convergence with threshold widening: a bound
// of next that grew since prev jumps to the nearest "landmark" constant —
// the comparison immediates and loop bounds appearing in the function —
// and only to the extreme when no landmark remains. Plain widening-to-Top
// loses loop-header ranges irrecoverably (descending iteration cannot
// narrow a register that merely passes through an inner loop); landmarks
// let iterator-driven ranges settle at their actual loop bounds. A Top
// entry on either side widens to Top: its bounds are already the extremes.
func widenState(prev, next *state, thresholds []int64) {
	for r, iv := range next {
		p := prev[r]
		lo, hi := p.Lo, p.Hi
		if iv.Lo < p.Lo {
			lo = widenDown(iv.Lo, thresholds)
		}
		if iv.Hi > p.Hi {
			hi = widenUp(iv.Hi, thresholds)
		}
		next[r] = interval.New(lo, hi)
	}
}

// widenUp returns the smallest threshold >= v, else MaxInt64.
func widenUp(v int64, thresholds []int64) int64 {
	for _, t := range thresholds {
		if t >= v {
			return t
		}
	}
	return math.MaxInt64
}

// widenDown returns the largest threshold <= v, else MinInt64.
func widenDown(v int64, thresholds []int64) int64 {
	for i := len(thresholds) - 1; i >= 0; i-- {
		if thresholds[i] <= v {
			return thresholds[i]
		}
	}
	return math.MinInt64
}

// gatherThresholds collects the landmark constants of a function: the
// immediates of comparisons (and their neighbours, which branch
// refinement produces) plus loop-iterator bounds.
func gatherThresholds(p *prog.Program, f *prog.Func) []int64 {
	set := map[int64]bool{-1: true, 0: true, 1: true}
	add := func(v int64) {
		set[v] = true
		if v > math.MinInt64 {
			set[v-1] = true
		}
		if v < math.MaxInt64 {
			set[v+1] = true
		}
	}
	for i := f.Start; i < f.End; i++ {
		in := &p.Ins[i]
		if isa.ClassOf(in.Op) == isa.ClassCmp && in.HasImm {
			add(in.Imm)
		}
	}
	for _, l := range f.Loops() {
		if l.Iter != nil && l.Iter.Bounded {
			add(l.Iter.MinVal)
			add(l.Iter.MaxVal)
		}
	}
	out := make([]int64, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// propagate runs the interprocedural fixpoint: intraprocedural forward
// range analysis per function, with function summaries joined at call and
// return sites, iterated to stability or the round limit.
func (r *Result) propagate() error {
	p := r.Prog
	r.summaries = make([]*summary, len(p.Funcs))
	for i := range r.summaries {
		r.summaries[i] = &summary{}
	}
	// The entry function starts with unknown (Top) arguments.
	entry := r.summaries[p.Entry]
	for i := range entry.args {
		entry.args[i] = interval.Top()
	}
	entry.reached = true

	for round := 0; round < maxRounds; round++ {
		changed := false
		for fi, f := range p.Funcs {
			if !r.summaries[fi].reached {
				continue
			}
			if r.analyzeFunc(f, false) {
				changed = true
			}
		}
		if !changed {
			break
		}
		if round == maxRounds-2 {
			// Last chance to converge: force every summary to Top so
			// the final recording pass is sound even without a true
			// fixpoint (the paper's traversal limit).
			for _, s := range r.summaries {
				if !s.reached {
					continue
				}
				for i := range s.args {
					s.args[i] = interval.Top()
				}
				s.ret = interval.Top()
			}
		}
	}

	// Recording pass: summaries are stable; fill the per-instruction
	// range tables.
	for fi, f := range p.Funcs {
		if !r.summaries[fi].reached {
			continue
		}
		r.analyzeFunc(f, true)
	}
	return nil
}

// analyzeFunc runs the intraprocedural forward analysis; it reports
// whether any summary changed (via calls/returns). When record is set,
// per-instruction ranges are captured.
func (r *Result) analyzeFunc(f *prog.Func, record bool) bool {
	p := r.Prog
	sum := r.summaries[f.Index]

	entryState := unknownState
	for i := 0; i < prog.NumArgRegs; i++ {
		if !sum.args[i].IsEmpty() {
			entryState.set(prog.RegArg0+isa.Reg(i), sum.args[i])
		}
	}
	// The stack pointer stays inside the data segment.
	entryState.set(prog.RegSP, interval.New(p.DataBase, p.DataBase+p.MemSize))

	// Iterator clamps from loop analysis (§2.3).
	clamps := map[int]interval.Interval{}
	if !r.Opts.DisableLoopAnalysis {
		for _, l := range f.Loops() {
			if l.Iter != nil && l.Iter.Bounded {
				clamps[l.Iter.UpdateIdx] = interval.New(l.Iter.MinVal, l.Iter.MaxVal)
			}
		}
	}

	thresholds := gatherThresholds(p, f)
	blocks := f.RPOBlocks()
	// The tables below are indexed by Block.ID. edges[edgeOff[b]+k] is the
	// state b propagates along its edge to b.Succs[k]; it is valid once b
	// has been visited (visits[b] > 0), and every visit either transfers
	// the block or finds its in-state unchanged.
	edgeOff := make([]int, len(f.Blocks))
	nEdges := 0
	for _, b := range f.Blocks {
		edgeOff[b.ID] = nEdges
		nEdges += len(b.Succs)
	}
	edges := make([]state, nEdges)
	inState := make([]state, len(f.Blocks))
	visits := make([]int, len(f.Blocks))
	summaryChanged := false

	runPass := func(widen, force, recordNow bool) bool {
		changed := false
		for _, b := range blocks {
			// Join incoming edges (plus the entry state for block 0).
			var in state
			reached := false
			if b == f.Blocks[0] {
				in = entryState
				reached = true
			}
			for _, pred := range b.Preds {
				if visits[pred.ID] == 0 {
					continue
				}
				es := &edges[edgeOff[pred.ID]+succIndex(pred, b)]
				if !reached {
					in = *es
					reached = true
				} else {
					in.join(es)
				}
			}
			if !reached {
				continue
			}
			visits[b.ID]++
			if visits[b.ID] > 1 {
				prev := &inState[b.ID]
				if widen && visits[b.ID] > 3 {
					widenState(prev, &in, thresholds)
				}
				if !force && statesEqual(prev, &in) {
					continue
				}
			}
			inState[b.ID] = in
			changed = true

			// Transfer through the block.
			for i := b.Start; i < b.End; i++ {
				if r.transfer(f, i, &in, clamps, recordNow) {
					summaryChanged = true
				}
			}

			// Emit successor edge states with branch refinement.
			term := b.Terminator(p)
			for k, succ := range b.Succs {
				es := &edges[edgeOff[b.ID]+k]
				*es = in
				if term != nil && isa.IsCondBranch(term.Op) && !r.Opts.DisableBranchRefinement {
					taken := succ.Start == term.Target
					// A conditional branch whose target equals the
					// fall-through refines both ways; treat as taken.
					r.refineEdge(b, term, taken, es)
				}
			}
		}
		return changed
	}

	// Ascending (widened) fixpoint, then two descending (narrowing)
	// passes to recover precision lost to widening — both directions are
	// sound because every transfer is a superset of concrete execution.
	for pass := 0; pass < maxPasses; pass++ {
		if !runPass(true, false, false) {
			break
		}
	}
	runPass(false, true, false)
	runPass(false, true, false)
	if record {
		runPass(false, true, true)
	}
	return summaryChanged
}

// succIndex returns the position of succ in b.Succs (which holds each
// successor once).
func succIndex(b, succ *prog.Block) int {
	for k, s := range b.Succs {
		if s == succ {
			return k
		}
	}
	panic("vrp: block is not a successor of its predecessor")
}

// transfer applies one instruction to the state; record captures operand
// and result ranges. It reports whether a function summary changed.
func (r *Result) transfer(f *prog.Func, idx int, s *state, clamps map[int]interval.Interval, record bool) bool {
	p := r.Prog
	in := &p.Ins[idx]
	ra := r.get(s, in.Ra)
	var rb interval.Interval
	if in.HasImm {
		rb = interval.Const(in.Imm)
	} else {
		rb = r.get(s, in.Rb)
	}
	if record {
		r.RaRange[idx] = ra.Join(r.RaRange[idx])
		r.RbRange[idx] = rb.Join(r.RbRange[idx])
	}

	k := in.Width.Bytes()
	var res interval.Interval
	hasRes := true

	switch in.Op {
	case isa.OpLDA:
		res = interval.SignExtend(interval.Add(ra, interval.Const(in.Imm)), k)
	case isa.OpLD:
		switch in.Width {
		case isa.W8, isa.W16:
			res = interval.UnsignedWidthBounds(k)
		case isa.W32:
			res = interval.WidthBounds(4)
		default:
			res = interval.Top()
		}
	case isa.OpADD:
		res = interval.SignExtend(interval.Add(ra, rb), k)
	case isa.OpSUB:
		res = interval.SignExtend(interval.Sub(ra, rb), k)
	case isa.OpMUL:
		res = interval.SignExtend(interval.Mul(ra, rb), k)
	case isa.OpAND:
		res = interval.SignExtend(interval.And(ra, rb), k)
	case isa.OpOR:
		res = interval.SignExtend(interval.Or(ra, rb), k)
	case isa.OpXOR:
		res = interval.SignExtend(interval.Xor(ra, rb), k)
	case isa.OpBIC:
		res = interval.SignExtend(interval.AndNot(ra, rb), k)
	case isa.OpSLL:
		res = interval.SignExtend(interval.Shl(ra, rb), k)
	case isa.OpSRL:
		res = interval.SignExtend(interval.Shr(ra, rb), k)
	case isa.OpSRA:
		res = interval.SignExtend(interval.Sar(ra, rb), k)
	case isa.OpMSKL:
		res = interval.MaskLow(ra, k)
	case isa.OpEXTB:
		if c, ok := rb.IsConst(); ok && c&7 == 0 {
			res = interval.ExtractByte(ra)
		} else {
			res = interval.New(0, 255)
		}
	case isa.OpSEXT:
		res = interval.SignExtend(ra, k)
	case isa.OpCMPEQ, isa.OpCMPLT, isa.OpCMPLE, isa.OpCMPULT, isa.OpCMPULE:
		res = cmpRange(in.Op, ra, rb)
	case isa.OpCMOVEQ, isa.OpCMOVNE, isa.OpCMOVLT, isa.OpCMOVGE:
		// Result is either the (width-extended) source or the old value.
		old := r.get(s, in.Rd)
		res = interval.SignExtend(rb, k).Join(old)
	case isa.OpJSR:
		// Link value, then call effects below.
		res = interval.Const(int64(idx + 1))
	case isa.OpST, isa.OpBR, isa.OpBEQ, isa.OpBNE, isa.OpBLT,
		isa.OpBGE, isa.OpBGT, isa.OpBLE, isa.OpRET, isa.OpHALT, isa.OpOUT:
		hasRes = false
	default:
		hasRes = false
	}

	changed := false
	if in.Op == isa.OpJSR {
		// Join argument ranges into the callee summary.
		callee := -1
		if cf := p.FuncOf(in.Target); cf != nil {
			callee = cf.Index
		}
		if callee >= 0 {
			cs := r.summaries[callee]
			for i := 0; i < prog.NumArgRegs; i++ {
				av := r.get(s, prog.RegArg0+isa.Reg(i))
				j := cs.args[i].Join(av)
				if !j.Equal(cs.args[i]) {
					cs.args[i] = j
					changed = true
				}
			}
			if !cs.reached {
				cs.reached = true
				changed = true
			}
		}
		// Clobber caller-saved state.
		for _, reg := range prog.CallClobbered() {
			s.set(reg, interval.Top())
		}
		if callee >= 0 && !r.summaries[callee].ret.IsEmpty() {
			s.set(prog.RegRet, r.summaries[callee].ret)
		}
	} else if in.Op == isa.OpRET {
		sum := r.summaries[f.Index]
		rv := r.get(s, prog.RegRet)
		j := sum.ret.Join(rv)
		if !j.Equal(sum.ret) {
			sum.ret = j
			changed = true
		}
	}

	if hasRes {
		if clamp, ok := clamps[idx]; ok {
			m := res.Meet(clamp)
			if !m.IsEmpty() {
				res = m
			}
		}
		if record {
			r.ResRange[idx] = res.Join(r.ResRange[idx])
		}
		if d, ok := in.Dest(); ok {
			s.set(d, res)
		}
	}
	return changed
}

// cmpRange evaluates a comparison statically when operand ranges decide it.
func cmpRange(op isa.Op, a, b interval.Interval) interval.Interval {
	if a.IsEmpty() || b.IsEmpty() {
		return interval.New(0, 1)
	}
	switch op {
	case isa.OpCMPEQ:
		if av, ok := a.IsConst(); ok {
			if bv, ok2 := b.IsConst(); ok2 {
				return interval.CmpResult(true, av == bv)
			}
		}
		if a.Meet(b).IsEmpty() {
			return interval.Const(0)
		}
	case isa.OpCMPLT:
		if a.Hi < b.Lo {
			return interval.Const(1)
		}
		if a.Lo >= b.Hi {
			return interval.Const(0)
		}
	case isa.OpCMPLE:
		if a.Hi <= b.Lo {
			return interval.Const(1)
		}
		if a.Lo > b.Hi {
			return interval.Const(0)
		}
	case isa.OpCMPULT:
		if a.Lo >= 0 && b.Lo >= 0 {
			if a.Hi < b.Lo {
				return interval.Const(1)
			}
			if a.Lo >= b.Hi {
				return interval.Const(0)
			}
		}
	case isa.OpCMPULE:
		if a.Lo >= 0 && b.Lo >= 0 {
			if a.Hi <= b.Lo {
				return interval.Const(1)
			}
			if a.Lo > b.Hi {
				return interval.Const(0)
			}
		}
	}
	return interval.New(0, 1)
}

// refineEdge applies §2.2.4: the comparison feeding a conditional branch
// constrains the tested register along each outgoing edge.
func (r *Result) refineEdge(b *prog.Block, term *isa.Instruction, taken bool, s *state) {
	p := r.Prog
	cond := term.Ra

	// Does the branch condition hold on this edge?
	// For a branch on a register c, "taken" means cond(c) true.
	// Find the last definition of c within the block before the branch.
	var cmp *isa.Instruction
	cmpIdx := -1
	for i := b.End - 2; i >= b.Start; i-- {
		d, ok := p.Ins[i].Dest()
		if !ok || d != cond {
			continue
		}
		if isa.ClassOf(p.Ins[i].Op) == isa.ClassCmp {
			cmp = &p.Ins[i]
			cmpIdx = i
		}
		break
	}

	if cmp != nil {
		// The tested register must not be redefined between the compare
		// and the branch.
		x := cmp.Ra
		redefined := false
		for i := cmpIdx + 1; i < b.End-1; i++ {
			if d, ok := p.Ins[i].Dest(); ok && (d == x || d == cond) {
				redefined = true
				break
			}
		}
		if !redefined && cmp.HasImm && x != isa.ZeroReg {
			cmpTrue, known := branchImpliesCmp(term.Op, taken)
			if known {
				c := cmp.Imm
				cur := r.get(s, x)
				refined := refineByCmp(cmp.Op, cmpTrue, cur, c)
				if !refined.IsEmpty() {
					s.set(x, refined)
				}
			}
		}
		return
	}

	// Direct test of a register against zero.
	cur := r.get(s, cond)
	refined := refineByZeroTest(term.Op, taken, cur)
	if !refined.IsEmpty() {
		s.set(cond, refined)
	}
}

// branchImpliesCmp maps (branch opcode, edge) to the truth of the compare
// result feeding it. Compare results are 0 or 1.
func branchImpliesCmp(op isa.Op, taken bool) (cmpTrue, known bool) {
	switch op {
	case isa.OpBNE, isa.OpBGT: // c != 0 / c > 0  <=>  cmp true
		return taken, true
	case isa.OpBEQ, isa.OpBLE: // c == 0 / c <= 0  <=>  cmp false
		return !taken, true
	}
	return false, false
}

// refineByCmp intersects cur with the constraint "x cmpOp c == cmpTrue".
func refineByCmp(op isa.Op, cmpTrue bool, cur interval.Interval, c int64) interval.Interval {
	below := func(hi int64) interval.Interval { return interval.New(math.MinInt64, hi) }
	above := func(lo int64) interval.Interval { return interval.New(lo, math.MaxInt64) }
	switch op {
	case isa.OpCMPEQ:
		if cmpTrue {
			return cur.Meet(interval.Const(c))
		}
		return trimPoint(cur, c)
	case isa.OpCMPLT:
		if cmpTrue {
			if c == math.MinInt64 {
				return interval.Empty()
			}
			return cur.Meet(below(c - 1))
		}
		return cur.Meet(above(c))
	case isa.OpCMPLE:
		if cmpTrue {
			return cur.Meet(below(c))
		}
		if c == math.MaxInt64 {
			return interval.Empty()
		}
		return cur.Meet(above(c + 1))
	case isa.OpCMPULT:
		// Sound only when the current range is non-negative.
		if cur.Lo >= 0 && c >= 0 {
			if cmpTrue {
				return cur.Meet(interval.New(0, max64(c-1, 0)))
			}
			return cur.Meet(above(c))
		}
	case isa.OpCMPULE:
		if cur.Lo >= 0 && c >= 0 {
			if cmpTrue {
				return cur.Meet(interval.New(0, c))
			}
			return cur.Meet(above(c + 1))
		}
	}
	return cur
}

// refineByZeroTest refines a register directly tested by a branch.
func refineByZeroTest(op isa.Op, taken bool, cur interval.Interval) interval.Interval {
	switch op {
	case isa.OpBEQ:
		if taken {
			return cur.Meet(interval.Const(0))
		}
		return trimPoint(cur, 0)
	case isa.OpBNE:
		if taken {
			return trimPoint(cur, 0)
		}
		return cur.Meet(interval.Const(0))
	case isa.OpBLT:
		if taken {
			return cur.Meet(interval.New(math.MinInt64, -1))
		}
		return cur.Meet(interval.New(0, math.MaxInt64))
	case isa.OpBGE:
		if taken {
			return cur.Meet(interval.New(0, math.MaxInt64))
		}
		return cur.Meet(interval.New(math.MinInt64, -1))
	case isa.OpBGT:
		if taken {
			return cur.Meet(interval.New(1, math.MaxInt64))
		}
		return cur.Meet(interval.New(math.MinInt64, 0))
	case isa.OpBLE:
		if taken {
			return cur.Meet(interval.New(math.MinInt64, 0))
		}
		return cur.Meet(interval.New(1, math.MaxInt64))
	}
	return cur
}

// trimPoint removes v from the interval when v is an endpoint (intervals
// cannot represent holes).
func trimPoint(cur interval.Interval, v int64) interval.Interval {
	if cur.IsEmpty() {
		return cur
	}
	if lo, ok := cur.IsConst(); ok && lo == v {
		return interval.Empty()
	}
	if cur.Lo == v {
		return interval.New(cur.Lo+1, cur.Hi)
	}
	if cur.Hi == v {
		return interval.New(cur.Lo, cur.Hi-1)
	}
	return cur
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
