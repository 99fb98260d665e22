package prog_test

import (
	"testing"

	"opgate/internal/asm"
	"opgate/internal/isa"
	"opgate/internal/prog"
)

func mustAssemble(t *testing.T, src string) *prog.Program {
	t.Helper()
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	return p
}

const diamondSrc = `
.func main
	lda r1, 5(rz)
	beq r1, left
	lda r2, 1(rz)
	br join
left:
	lda r2, 2(rz)
join:
	add r3, r2, #1
	halt
`

func TestCFGConstruction(t *testing.T) {
	p := mustAssemble(t, diamondSrc)
	f := p.Funcs[0]
	if len(f.Blocks) != 4 {
		t.Fatalf("diamond has %d blocks, want 4", len(f.Blocks))
	}
	entry := f.Blocks[0]
	if len(entry.Succs) != 2 {
		t.Fatalf("entry has %d successors, want 2", len(entry.Succs))
	}
	// The join block has two predecessors.
	join := f.BlockOf(p.Labels["join"])
	if len(join.Preds) != 2 {
		t.Fatalf("join has %d preds, want 2", len(join.Preds))
	}
}

func TestDominators(t *testing.T) {
	p := mustAssemble(t, diamondSrc)
	f := p.Funcs[0]
	entry := f.Blocks[0]
	join := f.BlockOf(p.Labels["join"])
	left := f.BlockOf(p.Labels["left"])
	if !prog.Dominates(entry, join) {
		t.Error("entry must dominate join")
	}
	if !prog.Dominates(entry, left) {
		t.Error("entry must dominate left")
	}
	if prog.Dominates(left, join) {
		t.Error("left must not dominate join (the other arm bypasses it)")
	}
	if !prog.Dominates(join, join) {
		t.Error("dominance must be reflexive")
	}
}

func TestLoopDetectionAndTripCount(t *testing.T) {
	p := mustAssemble(t, `
.func main
	lda r1, 0(rz)
loop:
	add r2, r2, r1
	add r1, r1, #1
	cmplt r3, r1, #50
	bne r3, loop
	halt
`)
	f := p.Funcs[0]
	loops := f.Loops()
	if len(loops) != 1 {
		t.Fatalf("found %d loops, want 1", len(loops))
	}
	it := loops[0].Iter
	if it == nil || !it.Bounded {
		t.Fatalf("iterator not bounded: %v", it)
	}
	if it.Reg != 1 || it.Step != 1 || it.TripCount != 50 {
		t.Errorf("iterator = %v, want r1 step 1 trips 50", it)
	}
	if it.MinVal != 0 || it.MaxVal != 50 {
		t.Errorf("iterator range [%d,%d], want [0,50]", it.MinVal, it.MaxVal)
	}
}

func TestNestedLoops(t *testing.T) {
	p := mustAssemble(t, `
.func main
	lda r1, 0(rz)
outer:
	lda r2, 0(rz)
inner:
	add r3, r3, #1
	add r2, r2, #1
	cmplt r4, r2, #10
	bne r4, inner
	add r1, r1, #1
	cmplt r4, r1, #5
	bne r4, outer
	halt
`)
	f := p.Funcs[0]
	loops := f.Loops()
	if len(loops) != 2 {
		t.Fatalf("found %d loops, want 2", len(loops))
	}
	var inner, outer *prog.Loop
	for _, l := range loops {
		if len(l.Blocks) < 3 {
			inner = l
		} else {
			outer = l
		}
	}
	if inner == nil || outer == nil {
		t.Fatal("could not identify nesting")
	}
	if inner.Parent != outer {
		t.Error("inner loop's parent is not the outer loop")
	}
	if outer.Parent != nil {
		t.Error("outer loop has a parent")
	}
}

func TestDataDependentLoopUnbounded(t *testing.T) {
	// §2.3: loops that depend on a comparison with a non-constant have
	// no statically known trip count.
	p := mustAssemble(t, `
.data
buf: .space 64
.text
.func main
	lda r1, 0(rz)
loop:
	lda r5, =buf
	add r5, r5, r1
	ld.b r6, 0(r5)
	add r1, r1, #1
	cmplt r3, r1, #64
	beq r3, done
	bne r6, loop
done:
	halt
`)
	f := p.Funcs[0]
	for _, l := range f.Loops() {
		if l.Iter != nil && l.Iter.Bounded {
			// Bounded is fine here (the i<64 exit test exists), but the
			// range must cover the worst case.
			if l.Iter.MaxVal > 64 {
				t.Errorf("iterator overshoot: %v", l.Iter)
			}
		}
	}
}

func TestDefUseChains(t *testing.T) {
	p := mustAssemble(t, `
.func main
	lda r1, 7(rz)
	add r2, r1, #1
	add r3, r1, #2
	add r4, r2, r3
	out.q r4
	halt
`)
	f := p.Funcs[0]
	du := prog.BuildDefUse(p, f)
	// r1's def (index 0) is used by instructions 1 and 2.
	uses := du.Uses(0)
	if len(uses) != 2 || uses[0] != 1 || uses[1] != 2 {
		t.Errorf("uses of def 0 = %v, want [1 2]", uses)
	}
	// Instruction 3 uses r2 (def 1) and r3 (def 2).
	if defs := du.ReachingDefs(3, 2); len(defs) != 1 || defs[0] != 1 {
		t.Errorf("reaching defs of r2 at 3 = %v", defs)
	}
}

func TestDefUseAcrossBranches(t *testing.T) {
	p := mustAssemble(t, diamondSrc)
	f := p.Funcs[0]
	du := prog.BuildDefUse(p, f)
	// r2 at the join's add has two reaching defs (both arms).
	addIdx := p.Labels["join"]
	defs := du.ReachingDefs(addIdx, 2)
	if len(defs) != 2 {
		t.Errorf("r2 at join has %d reaching defs, want 2: %v", len(defs), defs)
	}
}

func TestCallGraphAndClobbers(t *testing.T) {
	p := mustAssemble(t, `
.func main
	lda a0, 1(rz)
	jsr helper
	out.q rv
	halt
.func helper
	add rv, a0, #1
	ret
`)
	main := p.Funcs[0]
	if len(main.Calls) != 1 {
		t.Fatalf("main has %d call sites, want 1", len(main.Calls))
	}
	if cs := main.Calls[0]; cs.Callee != 1 {
		t.Errorf("callee index = %d, want 1", cs.Callee)
	}
	// The OUT of rv must see the JSR as a reaching def (call clobber).
	du := prog.BuildDefUse(p, main)
	outIdx := main.Calls[0].InsIdx + 1
	defs := du.ReachingDefs(outIdx, prog.RegRet)
	if len(defs) != 1 || defs[0] != main.Calls[0].InsIdx {
		t.Errorf("rv at out reaches defs %v, want the JSR", defs)
	}
}

func TestValidateCatchesBadPrograms(t *testing.T) {
	p := mustAssemble(t, diamondSrc)
	// Corrupt a branch target.
	q := p.Clone()
	for i := range q.Ins {
		if q.Ins[i].Op == isa.OpBR {
			q.Ins[i].Target = 10_000
		}
	}
	if err := q.Validate(); err == nil {
		t.Error("Validate accepted an out-of-image branch target")
	}
}

func TestCloneIndependence(t *testing.T) {
	p := mustAssemble(t, diamondSrc)
	q := p.Clone()
	q.Ins[0].Imm = 99
	if p.Ins[0].Imm == 99 {
		t.Error("clone shares instruction storage with the original")
	}
	if len(q.Funcs[0].Blocks) != len(p.Funcs[0].Blocks) {
		t.Error("clone has different CFG")
	}
}

// TestClonedUpdateIteratorStillBounded: when a loop body containing the
// iterator update is duplicated (as VRS does), every copy is the identical
// update and the trip-count analysis must still succeed — each iteration
// executes exactly one copy.
func TestClonedUpdateIteratorStillBounded(t *testing.T) {
	p := mustAssemble(t, `
.func main
	lda r1, 0(rz)
loop:
	cmplt r5, r1, #25
	beq r5, alt
	add r2, r2, r1
	add r1, r1, #1
	cmplt r3, r1, #50
	bne r3, loop
	br done
alt:
	add r2, r2, #7
	add r1, r1, #1
	cmplt r3, r1, #50
	bne r3, loop
done:
	halt
`)
	f := p.Funcs[0]
	if len(f.Loops()) != 1 {
		t.Fatalf("found %d loops", len(f.Loops()))
	}
	it := f.Loops()[0].Iter
	if it == nil || !it.Bounded {
		t.Fatalf("duplicated-update iterator not bounded: %v", it)
	}
	if it.Reg != 1 || it.MaxVal != 50 {
		t.Errorf("iterator %v, want r1 bounded at 50", it)
	}
}

// TestMixedStepUpdatesRejected: two updates with different steps cannot be
// treated as one iterator.
func TestMixedStepUpdatesRejected(t *testing.T) {
	p := mustAssemble(t, `
.func main
	lda r1, 0(rz)
loop:
	cmplt r5, r1, #25
	beq r5, alt
	add r1, r1, #1
	br check
alt:
	add r1, r1, #2
check:
	cmplt r3, r1, #50
	bne r3, loop
	halt
`)
	f := p.Funcs[0]
	for _, l := range f.Loops() {
		if l.Iter != nil && l.Iter.Bounded && l.Iter.Reg == 1 {
			t.Errorf("mixed-step updates produced a bounded iterator: %v", l.Iter)
		}
	}
}
