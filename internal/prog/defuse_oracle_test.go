package prog_test

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"opgate/internal/asm"
	"opgate/internal/isa"
	"opgate/internal/prog"
	"opgate/internal/progen"
	"opgate/internal/workload"
)

// refBuildDefUse is the reference reaching-definitions solver: one map of
// definition sets per register per block, iterated in reverse postorder
// to the least fixpoint. BuildDefUse must reproduce its chains exactly.
func refBuildDefUse(p *prog.Program, f *prog.Func) (ud map[int]map[isa.Reg][]int, du map[int][]int) {
	ud = make(map[int]map[isa.Reg][]int)
	du = make(map[int][]int)
	clobbered := prog.CallClobbered()

	// in[b][reg] = set of reaching def indices (-1 for live-in).
	type defset map[int]bool
	in := make([]map[isa.Reg]defset, len(f.Blocks))
	out := make([]map[isa.Reg]defset, len(f.Blocks))
	for i := range in {
		in[i] = make(map[isa.Reg]defset)
		out[i] = make(map[isa.Reg]defset)
	}
	// Entry block: every register live-in.
	entryIn := in[0]
	for r := 0; r < isa.NumRegs; r++ {
		entryIn[isa.Reg(r)] = defset{-1: true}
	}

	// step applies instruction i's definitions to cur.
	step := func(i int, cur map[isa.Reg]defset) {
		ins := &p.Ins[i]
		if ins.Op == isa.OpJSR {
			for _, r := range clobbered {
				cur[r] = defset{i: true}
			}
			return
		}
		if d, ok := ins.Dest(); ok {
			cur[d] = defset{i: true}
		}
	}
	transfer := func(b *prog.Block, state map[isa.Reg]defset) map[isa.Reg]defset {
		cur := make(map[isa.Reg]defset, len(state))
		for r, s := range state {
			cur[r] = s
		}
		for i := b.Start; i < b.End; i++ {
			step(i, cur)
		}
		return cur
	}
	eqState := func(a, b map[isa.Reg]defset) bool {
		if len(a) != len(b) {
			return false
		}
		for r, sa := range a {
			sb, ok := b[r]
			if !ok || len(sa) != len(sb) {
				return false
			}
			for d := range sa {
				if !sb[d] {
					return false
				}
			}
		}
		return true
	}

	rpo := f.RPOBlocks()
	for changed := true; changed; {
		changed = false
		for _, b := range rpo {
			// Meet: union of predecessor outs (entry keeps live-ins).
			merged := make(map[isa.Reg]defset)
			if b == f.Blocks[0] {
				for r, s := range entryIn {
					cp := make(defset, len(s))
					for d := range s {
						cp[d] = true
					}
					merged[r] = cp
				}
			}
			for _, pred := range b.Preds {
				for r, s := range out[pred.ID] {
					dst := merged[r]
					if dst == nil {
						dst = make(defset, len(s))
						merged[r] = dst
					}
					for d := range s {
						dst[d] = true
					}
				}
			}
			if !eqState(merged, in[b.ID]) {
				in[b.ID] = merged
				changed = true
			}
			newOut := transfer(b, in[b.ID])
			if !eqState(newOut, out[b.ID]) {
				out[b.ID] = newOut
				changed = true
			}
		}
	}

	// Second pass: walk each block recording UD/DU.
	for _, b := range f.Blocks {
		cur := make(map[isa.Reg]defset, len(in[b.ID]))
		for r, s := range in[b.ID] {
			cur[r] = s
		}
		for i := b.Start; i < b.End; i++ {
			ins := &p.Ins[i]
			record := func(r isa.Reg) {
				if r == isa.ZeroReg {
					return
				}
				if ud[i] != nil {
					if _, done := ud[i][r]; done {
						return
					}
				}
				if ud[i] == nil {
					ud[i] = make(map[isa.Reg][]int)
				}
				var list []int
				for d := range cur[r] {
					list = append(list, d)
					if d >= 0 {
						du[d] = append(du[d], i)
					}
				}
				slices.Sort(list)
				ud[i][r] = list
			}
			uses, n := ins.Uses()
			for k := 0; k < n; k++ {
				record(uses[k])
			}
			for _, r := range prog.PseudoUses(ins.Op) {
				record(r)
			}
			step(i, cur)
		}
	}
	for d := range du {
		slices.Sort(du[d])
	}
	return ud, du
}

// TestDefUseMatchesReference checks BuildDefUse against the reference
// solver on every function of the kernels, the generated families, and
// the flip and phased programs.
func TestDefUseMatchesReference(t *testing.T) {
	type named struct {
		name  string
		build func() (*prog.Program, error)
	}
	// edgeSrc reads two registers one JSR clobbered (so the JSR's DU list
	// holds the reader twice) and ends in a block no path reaches (whose
	// reads have no reaching definition at all).
	const edgeSrc = `
.func main
	lda a0, 1(rz)
loop:
	jsr helper
	add r9, a0, rv
	cmplt r10, r9, #50
	bne r10, loop
	halt
	add r11, r9, r12
	halt
.func helper
	add rv, a0, #1
	ret
`
	progs := []named{{"edge", func() (*prog.Program, error) { return asm.Assemble(edgeSrc) }}}
	for _, w := range workload.All() {
		for _, class := range []workload.InputClass{workload.Train, workload.Ref} {
			progs = append(progs, named{fmt.Sprintf("%s/%s", w.Name, class),
				func() (*prog.Program, error) { return w.Build(class) }})
		}
	}
	for _, f := range progen.Families() {
		for _, c := range []progen.Class{progen.Small, progen.Medium} {
			for seed := uint64(1); seed <= 20; seed++ {
				progs = append(progs, named{fmt.Sprintf("%s-s%d-%s", f, seed, c),
					func() (*prog.Program, error) { return progen.Generate(f, seed, c, true) }})
			}
		}
	}
	for seed := uint64(1); seed <= 8; seed++ {
		progs = append(progs,
			named{fmt.Sprintf("flip4-s%d", seed), func() (*prog.Program, error) {
				return progen.GenerateFlip(4, seed, progen.Small, true)
			}},
			named{fmt.Sprintf("phased-s%d", seed), func() (*prog.Program, error) {
				p, _, err := progen.GeneratePhased(progen.Families()[:3], seed, progen.Small, true)
				return p, err
			}})
	}

	funcs := 0
	for _, pc := range progs {
		p, err := pc.build()
		if err != nil {
			t.Fatalf("%s: %v", pc.name, err)
		}
		for _, f := range p.Funcs {
			funcs++
			got := prog.BuildDefUse(p, f)
			ud, du := refBuildDefUse(p, f)
			if !reflect.DeepEqual(got.UD, ud) {
				t.Errorf("%s %s: UD chains differ from the reference", pc.name, f.Name)
			}
			if !reflect.DeepEqual(got.DU, du) {
				t.Errorf("%s %s: DU chains differ from the reference", pc.name, f.Name)
			}
		}
	}
	t.Logf("%d functions checked", funcs)

	p := mustAssemble(t, edgeSrc)
	du := prog.BuildDefUse(p, p.Funcs[0])
	jsr, add := p.Labels["loop"], p.Labels["loop"]+1
	reads := 0
	for _, u := range du.Uses(jsr) {
		if u == add {
			reads++
		}
	}
	if reads != 2 {
		t.Errorf("uses of the JSR = %v, want the add twice", du.Uses(jsr))
	}
	if defs := du.ReachingDefs(add+4, 9); defs != nil {
		t.Errorf("unreachable read of r9 has reaching defs %v", defs)
	}
}
