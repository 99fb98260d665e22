package prog_test

import (
	"testing"

	"opgate/internal/emu"
	"opgate/internal/isa"
	"opgate/internal/prog"
)

const loopSrc = `
.data
out: .space 8
.text
.func main
	lda r1, 0(rz)
	lda r2, 0(rz)
loop:
	add r2, r2, r1
	and r2, r2, #65535
	add r1, r1, #1
	cmplt r3, r1, #20
	bne r3, loop
	lda r4, =out
	st.q r2, 0(r4)
	out.w r2
	halt
`

// TestEditorIdentity: building without edits reproduces the program.
func TestEditorIdentity(t *testing.T) {
	p := mustAssemble(t, loopSrc)
	ed := prog.NewEditor(p)
	q, err := ed.Build()
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Ins) != len(p.Ins) {
		t.Fatalf("identity rebuild changed length %d -> %d", len(p.Ins), len(q.Ins))
	}
	if err := emu.CheckEquivalence(p, q); err != nil {
		t.Fatal(err)
	}
}

// TestEditorDelete: deleting a dead instruction redirects branches to the
// next live node and preserves behaviour.
func TestEditorDelete(t *testing.T) {
	p := mustAssemble(t, loopSrc)
	ed := prog.NewEditor(p)
	// Insert a dead "lda r5, 1(rz)" before the loop head, point the back
	// edge at it, then delete it again: the back edge must fall through
	// to the loop head.
	loopHead := ed.NodeAt(p.Labels["loop"])
	n := ed.InsertBeforeNoRedirect(loopHead, isa.Instruction{Op: isa.OpLDA, Width: isa.W64, Rd: 5, Ra: isa.ZeroReg, Imm: 1})
	redirected := 0
	for i := range p.Ins {
		if m := ed.NodeAt(i); m.Target == loopHead {
			ed.SetTarget(m, n)
			redirected++
		}
	}
	if redirected == 0 {
		t.Fatal("no branch targets the loop head; the test would prove nothing")
	}
	ed.Delete(n)
	q, err := ed.Build()
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Ins) != len(p.Ins) {
		t.Fatalf("delete did not remove the insert")
	}
	if err := emu.CheckEquivalence(p, q); err != nil {
		t.Fatal(err)
	}
}

// TestEditorCloneRange: cloning the loop body and steering odd iterations
// into the clone keeps behaviour identical (the clone is equivalent code).
func TestEditorCloneRange(t *testing.T) {
	p := mustAssemble(t, loopSrc)
	ed := prog.NewEditor(p)

	start := p.Labels["loop"]
	f := p.Funcs[0]
	blk := f.BlockOf(start)
	entry, mapping, err := ed.CloneRange(0, start, blk.End)
	if err != nil {
		t.Fatal(err)
	}
	if len(mapping) != blk.End-start {
		t.Fatalf("mapping has %d entries, want %d", len(mapping), blk.End-start)
	}
	// Guard: always take the clone (cmpeq rz==0 is true -> bne never...
	// use an unconditional test: cmpeq t,rz,#0 gives 1, bne jumps).
	anchor := ed.NodeAt(start)
	g1 := ed.InsertBeforeNoRedirect(anchor, isa.Instruction{
		Op: isa.OpCMPEQ, Width: isa.W64, Rd: prog.RegScratch, Ra: isa.ZeroReg, Imm: 0, HasImm: true,
	})
	_ = g1
	g2 := ed.InsertBeforeNoRedirect(anchor, isa.Instruction{Op: isa.OpBNE, Ra: prog.RegScratch})
	ed.SetTarget(g2, entry)

	q, err := ed.Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := emu.CheckEquivalence(p, q); err != nil {
		t.Fatal(err)
	}
	// The clone actually executes: dynamic count grows by the guard.
	r0, _ := emu.Execute(p)
	r1, _ := emu.Execute(q)
	if r1.Dyn <= r0.Dyn {
		t.Errorf("guarded program retired %d <= original %d", r1.Dyn, r0.Dyn)
	}
}

// TestEditorCloneRejoins: a clone of a range that falls through must end
// with an explicit branch to the join point.
func TestEditorCloneRejoins(t *testing.T) {
	p := mustAssemble(t, loopSrc)
	ed := prog.NewEditor(p)
	start := p.Labels["loop"]
	// Clone only the first two instructions of the body (falls through).
	entry, _, err := ed.CloneRange(0, start, start+2)
	if err != nil {
		t.Fatal(err)
	}
	_ = entry
	q, err := ed.Build()
	if err != nil {
		t.Fatal(err)
	}
	// The clone is unreachable (no guard), so behaviour is unchanged and
	// the program must still validate (the rejoin BR keeps control flow
	// closed).
	if err := emu.CheckEquivalence(p, q); err != nil {
		t.Fatal(err)
	}
	last := q.Ins[len(q.Ins)-1]
	if last.Op != isa.OpBR {
		t.Errorf("clone tail = %v, want a rejoin branch", last.Op)
	}
}

// TestEditorReplace: swapping an instruction in place.
func TestEditorReplace(t *testing.T) {
	p := mustAssemble(t, loopSrc)
	ed := prog.NewEditor(p)
	// Replace "and r2, r2, #65535" with an equivalent MSKL.
	var andIdx = -1
	for i := range p.Ins {
		if p.Ins[i].Op == isa.OpAND {
			andIdx = i
		}
	}
	ed.Replace(ed.NodeAt(andIdx), isa.Instruction{Op: isa.OpMSKL, Width: isa.W16, Rd: 2, Ra: 2})
	q, err := ed.Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := emu.CheckEquivalence(p, q); err != nil {
		t.Fatal(err)
	}
}
