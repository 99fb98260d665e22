package vrs

import (
	"testing"

	"opgate/internal/asm"
	"opgate/internal/emu"
	"opgate/internal/isa"
	"opgate/internal/power"
	"opgate/internal/prog"
	"opgate/internal/workload"
)

// TestGuardStructure: a specialized program contains the §3.4 guard shape
// (compare(s) on the specialized register, branch to the clone) using the
// reserved scratch register.
func TestGuardStructure(t *testing.T) {
	res := specializeWorkload(t, "vortex", 50)
	if res.NumSpecialized() == 0 {
		t.Skip("vortex did not specialize under this calibration")
	}
	q := res.Transformed
	foundGuardCmp := false
	for idx := range res.GuardIns {
		in := &q.Ins[idx]
		if isa.ClassOf(in.Op) == isa.ClassCmp {
			if in.Rd != prog.RegScratch {
				t.Errorf("guard compare writes %v, want the scratch register", in.Rd)
			}
			foundGuardCmp = true
		}
	}
	if !foundGuardCmp {
		t.Error("no guard comparison found")
	}
}

// TestCloneNarrowedByGuard: inside a range-specialized clone, the final
// VRP sees the guard's branch refinement — the clone's instructions carry
// narrower widths than their originals.
func TestSingleValueCloneFolds(t *testing.T) {
	res := specializeWorkload(t, "m88ksim", 50)
	if res.NumSpecialized() == 0 {
		t.Fatal("m88ksim must specialize its debug-control point")
	}
	if res.StaticEliminated < 3 {
		t.Errorf("eliminated %d instructions, want >=3 (three folded checks)", res.StaticEliminated)
	}
	// The transformed binary executes fewer instructions on the same
	// input.
	r0, err := emu.Execute(res.Original)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := emu.Execute(res.Transformed)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Dyn >= r0.Dyn {
		t.Errorf("specialized binary retired %d >= original %d", r1.Dyn, r0.Dyn)
	}
}

// TestFoldConstCoversOps: direct unit coverage of the constant folder.
func TestFoldConstCoversOps(t *testing.T) {
	consts := map[isa.Reg]int64{1: 12, 2: 5}
	cases := []struct {
		in   isa.Instruction
		want int64
	}{
		{isa.Instruction{Op: isa.OpADD, Width: isa.W64, Rd: 3, Ra: 1, Rb: 2}, 17},
		{isa.Instruction{Op: isa.OpSUB, Width: isa.W64, Rd: 3, Ra: 1, Rb: 2}, 7},
		{isa.Instruction{Op: isa.OpMUL, Width: isa.W64, Rd: 3, Ra: 1, Rb: 2}, 60},
		{isa.Instruction{Op: isa.OpAND, Width: isa.W64, Rd: 3, Ra: 1, Imm: 4, HasImm: true}, 4},
		{isa.Instruction{Op: isa.OpOR, Width: isa.W64, Rd: 3, Ra: 1, Rb: 2}, 13},
		{isa.Instruction{Op: isa.OpXOR, Width: isa.W64, Rd: 3, Ra: 1, Rb: 2}, 9},
		{isa.Instruction{Op: isa.OpSLL, Width: isa.W64, Rd: 3, Ra: 1, Imm: 2, HasImm: true}, 48},
		{isa.Instruction{Op: isa.OpSRL, Width: isa.W64, Rd: 3, Ra: 1, Imm: 1, HasImm: true}, 6},
		{isa.Instruction{Op: isa.OpCMPEQ, Width: isa.W64, Rd: 3, Ra: 1, Imm: 12, HasImm: true}, 1},
		{isa.Instruction{Op: isa.OpCMPLT, Width: isa.W64, Rd: 3, Ra: 1, Rb: 2}, 0},
		// Width truncation honoured: 12+5 at byte width still 17, but
		// 200*2 at byte width wraps.
		{isa.Instruction{Op: isa.OpLDA, Width: isa.W64, Rd: 3, Ra: 1, Imm: -12}, 0},
	}
	for _, c := range cases {
		folded, v, ok := foldConst(&c.in, consts)
		if !ok {
			t.Errorf("%v did not fold", c.in.Op)
			continue
		}
		if v != c.want {
			t.Errorf("%v folded to %d, want %d", c.in.Op, v, c.want)
		}
		if folded.Op != isa.OpLDA || folded.Ra != isa.ZeroReg || folded.Imm != c.want {
			t.Errorf("%v folded form wrong: %v", c.in.Op, folded.String())
		}
	}
	// Unknown operand: no fold.
	unk := isa.Instruction{Op: isa.OpADD, Width: isa.W64, Rd: 3, Ra: 7, Rb: 2}
	if _, _, ok := foldConst(&unk, consts); ok {
		t.Error("folded an instruction with an unknown operand")
	}
	// Loads never fold.
	ld := isa.Instruction{Op: isa.OpLD, Width: isa.W64, Rd: 3, Ra: 1}
	if _, _, ok := foldConst(&ld, consts); ok {
		t.Error("folded a load")
	}
}

func TestBranchTaken(t *testing.T) {
	cases := []struct {
		op    isa.Op
		v     int64
		taken bool
	}{
		{isa.OpBEQ, 0, true}, {isa.OpBEQ, 1, false},
		{isa.OpBNE, 0, false}, {isa.OpBNE, -1, true},
		{isa.OpBLT, -1, true}, {isa.OpBLT, 0, false},
		{isa.OpBGE, 0, true}, {isa.OpBGT, 1, true}, {isa.OpBLE, 0, true},
	}
	for _, c := range cases {
		if got := branchTaken(c.op, c.v); got != c.taken {
			t.Errorf("branchTaken(%v, %d) = %v", c.op, c.v, got)
		}
	}
}

// TestGuardCostModel: range guards cost more than single-value guards,
// and both scale with the op-energy calibration.
func TestGuardCostModel(t *testing.T) {
	params := power.DefaultParams()
	single := guardCost(params, 5, 5)
	ranged := guardCost(params, 0, 100)
	if ranged <= single {
		t.Errorf("range guard (%v) not costlier than single-value guard (%v)", ranged, single)
	}
	if single <= 0 {
		t.Error("guard cost must be positive")
	}
}

// TestRegionSingleEntry: every specialized region is dominated by the
// defining block (checked structurally via regionEnd on all kernels).
func TestRegionSingleEntry(t *testing.T) {
	for _, w := range workload.All() {
		p, err := w.Build(workload.Ref)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range p.Funcs {
			for _, blk := range f.Blocks {
				if blk.Len() == 0 {
					continue
				}
				end := regionEnd(f, blk, blk.Start)
				// Every block inside [blk.End, end) must be dominated
				// by blk.
				for i := blk.End; i < end; {
					nb := f.BlockOf(i)
					if !prog.Dominates(blk, nb) {
						t.Fatalf("%s: region from %v includes non-dominated %v", w.Name, blk, nb)
					}
					i = nb.End
				}
			}
		}
	}
}

// TestLayoutMismatchRejected: train and ref binaries must share a static
// layout.
func TestLayoutMismatchRejected(t *testing.T) {
	p1, _ := asm.Assemble(".func main\nlda r1, 1(rz)\nhalt\n")
	p2, _ := asm.Assemble(".func main\nlda r1, 1(rz)\nlda r2, 2(rz)\nhalt\n")
	if _, err := Specialize(p1, p2, Options{}); err == nil {
		t.Error("accepted mismatched layouts")
	}
}
