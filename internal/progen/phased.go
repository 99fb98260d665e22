package progen

import (
	"fmt"
	"strings"

	"opgate/internal/asm"
	"opgate/internal/isa"
	"opgate/internal/prog"
)

// This file holds the non-stationary generators: phase-structured
// composites (existing family bodies stitched into sequential program
// phases, each keeping its declared width band) and the adversarial
// width-flip family (one program that toggles between the narrow and
// wide ends of the spectrum at a configurable period). Stationary
// programs cannot separate width-prediction policies that agree on
// steady state; these can.

// MaxPhases bounds a composite's phase count: enough to stitch every
// family twice, small enough that a hostile name cannot demand an
// unbounded generation.
const MaxPhases = 8

// Phase records where one family's body landed in a composite program:
// the instruction-index range [Start, End) its code occupies within the
// entry function. Retired events attribute to the phase whose range
// holds their static index (a stream phase's deferred reduce callee
// lives past every range).
type Phase struct {
	Family     Family
	Start, End int
}

// GeneratePhased builds a phase-structured composite: the listed family
// bodies emitted back to back inside one entry function, each with its
// own namespaced data segment, executing strictly in sequence. The same
// (families, seed, class) always produces the same program; ref scales
// trip counts exactly as Generate does. The returned phases align with
// the program's instruction image.
func GeneratePhased(families []Family, seed uint64, c Class, ref bool) (*prog.Program, []Phase, error) {
	if len(families) == 0 {
		return nil, nil, fmt.Errorf("progen: phase composite needs at least one family")
	}
	if len(families) > MaxPhases {
		return nil, nil, fmt.Errorf("progen: %d phases exceed the maximum %d", len(families), MaxPhases)
	}
	for _, f := range families {
		if f < 0 || f >= numFamilies {
			return nil, nil, fmt.Errorf("progen: unknown family %d", int(f))
		}
	}
	if c < 0 || c >= numClasses {
		return nil, nil, fmt.Errorf("progen: unknown size class %d", int(c))
	}
	parts := make([]uint64, 0, len(families)+4)
	parts = append(parts, 0x9A5E, seed, uint64(c), uint64(len(families)))
	for _, f := range families {
		parts = append(parts, uint64(f))
	}
	g := &gen{
		b:     asm.NewBuilder(),
		code:  newRNG(append(append([]uint64(nil), parts...), 0xC0DE)...),
		input: newRNG(append(append([]uint64(nil), parts...), 0xDA7A+b2u(ref))...),
		class: c,
		ref:   ref,
	}
	g.b.Func("main")
	phases := make([]Phase, len(families))
	for i, f := range families {
		g.pfx = fmt.Sprintf("p%d_", i)
		start := g.b.Len()
		g.family(f)
		phases[i] = Phase{Family: f, Start: start, End: g.b.Len()}
		if g.err != nil {
			break
		}
	}
	g.pfx = ""
	g.b.Halt()
	g.flush()
	label := PhaseLabel(families)
	if g.err != nil {
		return nil, nil, fmt.Errorf("progen: phase/%s/%s/%d: %w", label, c, seed, g.err)
	}
	p, err := g.b.Build()
	if err != nil {
		return nil, nil, fmt.Errorf("progen: phase/%s/%s/%d: %w", label, c, seed, err)
	}
	return p, phases, nil
}

// PhaseLabel renders a composite's family list in its registry spelling:
// family names joined by '-', e.g. "narrow-wide-narrow".
func PhaseLabel(families []Family) string {
	names := make([]string, len(families))
	for i, f := range families {
		names[i] = f.String()
	}
	return strings.Join(names, "-")
}

// ParsePhaseLabel parses a '-'-joined family list.
func ParsePhaseLabel(label string) ([]Family, error) {
	if label == "" {
		return nil, fmt.Errorf("progen: empty phase family list")
	}
	names := strings.Split(label, "-")
	if len(names) > MaxPhases {
		return nil, fmt.Errorf("progen: %d phases exceed the maximum %d", len(names), MaxPhases)
	}
	fams := make([]Family, len(names))
	for i, name := range names {
		f, err := ParseFamily(name)
		if err != nil {
			return nil, err
		}
		fams[i] = f
	}
	return fams, nil
}

// MaxFlipPeriod bounds the width-flip toggle period (in blocks).
const MaxFlipPeriod = 1 << 12

// GenerateFlip builds the adversarial width-flip program: a block loop
// whose body alternates between a narrow (byte/halfword) arm and a wide
// (64-bit mixing) arm, toggling every period blocks. A width predictor
// tuned on either steady state is wrong for half the run; the toggle
// period controls how often it is punished. Control flow is counted and
// data-independent, so the program always halts and both variants share
// one static layout.
func GenerateFlip(period int, seed uint64, c Class, ref bool) (*prog.Program, error) {
	if period < 1 || period > MaxFlipPeriod {
		return nil, fmt.Errorf("progen: flip period %d out of range [1, %d]", period, MaxFlipPeriod)
	}
	if c < 0 || c >= numClasses {
		return nil, fmt.Errorf("progen: unknown size class %d", int(c))
	}
	g := &gen{
		b:     asm.NewBuilder(),
		code:  newRNG(0xF11F, seed, uint64(c), uint64(period), 0xC0DE),
		input: newRNG(0xF11F, seed, uint64(c), uint64(period), 0xDA7A+b2u(ref)),
		class: c,
		ref:   ref,
	}
	g.b.Func("main")
	g.flip(period)
	g.b.Halt()
	g.flush()
	if g.err != nil {
		return nil, fmt.Errorf("progen: flip/%d/%s/%d: %w", period, c, seed, g.err)
	}
	p, err := g.b.Build()
	if err != nil {
		return nil, fmt.Errorf("progen: flip/%d/%s/%d: %w", period, c, seed, err)
	}
	return p, nil
}

// flip emits the width-flip body: seed words feed both arms (byte view
// for the narrow arm, word view for the wide arm), a selector register
// picks the arm per block, and a countdown toggles the selector every
// period blocks.
func (g *gen) flip(period int) {
	b := g.b
	n := g.class.elems()
	blocks := g.trips(8)

	words := make([]int64, n)
	for i := range words {
		words[i] = int64(g.input.next())
	}
	b.Words(g.sym("words"), words)
	b.Space(g.sym("sink"), n*8)

	b.LoadAddr(s1, g.sym("words"))
	b.LoadAddr(s2, g.sym("sink"))
	// A genuinely 64-bit odd multiplier for the wide arm (top bit forced
	// so LoadImm always expands identically).
	b.LoadImm(s4, int64(g.code.next()|1|1<<63))
	b.Lda(s5, rz, 0)                         // block counter
	b.Lda(s6, rz, 0)                         // arm selector: 0 narrow, 1 wide
	b.Lda(s7, rz, int64(period))             // toggle countdown
	b.Lda(t6, rz, int64(1+g.code.intn(255))) // accumulator, both arms

	block := g.lbl("block")
	narrowArm := g.lbl("narrowarm")
	wideArm := g.lbl("widearm")
	join := g.lbl("join")
	noflip := g.lbl("noflip")
	b.Label(block)
	b.CondBranch(isa.OpBNE, s6, wideArm)

	// Narrow arm: byte loads, a seed-chosen chain of byte/halfword ALU
	// ops, byte stores — the compress end of the spectrum.
	b.Label(narrowArm)
	narrowLoop := g.lbl("narrowloop")
	b.Lda(s3, rz, 0) // i
	b.Label(narrowLoop)
	b.Op3(isa.OpADD, isa.W64, t1, s1, s3)
	b.Load(isa.W8, t2, t1, 0)
	k := g.code.between(2, 4)
	narrowW := []isa.Width{isa.W8, isa.W16}
	for j := 0; j < k; j++ {
		op := narrowALUOps[g.code.intn(len(narrowALUOps))]
		w := narrowW[g.code.intn(len(narrowW))]
		if g.code.intn(3) == 0 {
			b.OpI(op, w, t6, t6, int64(1+g.code.intn(255)))
		} else {
			b.Op3(op, w, t6, t6, t2)
		}
	}
	b.Op3(isa.OpADD, isa.W64, t3, s2, s3)
	b.Store(isa.W8, t6, t3, 0)
	b.OpI(isa.OpADD, isa.W32, s3, s3, 1)
	b.OpI(isa.OpCMPLT, isa.W32, t4, s3, int64(n))
	b.CondBranch(isa.OpBNE, t4, narrowLoop)
	b.Branch(join)

	// Wide arm: 64-bit multiply/xor-shift mixing over the same words —
	// the opposite steady state.
	b.Label(wideArm)
	wideLoop := g.lbl("wideloop")
	b.Lda(s3, rz, 0) // byte offset
	b.Label(wideLoop)
	b.Op3(isa.OpADD, isa.W64, t1, s1, s3)
	b.Load(isa.W64, t2, t1, 0)
	b.Op3(isa.OpMUL, isa.W64, t6, t6, s4)
	b.Op3(isa.OpXOR, isa.W64, t6, t6, t2)
	b.OpI(isa.OpSRL, isa.W64, t3, t6, int64(g.code.between(1, 31)))
	b.Op3(isa.OpXOR, isa.W64, t6, t6, t3)
	b.Op3(isa.OpADD, isa.W64, t4, s2, s3)
	b.Store(isa.W64, t6, t4, 0)
	b.OpI(isa.OpADD, isa.W64, s3, s3, 8)
	b.OpI(isa.OpCMPLT, isa.W64, t5, s3, int64(n*8))
	b.CondBranch(isa.OpBNE, t5, wideLoop)

	// Block epilogue: count the block, toggle the selector when the
	// countdown expires, loop while blocks remain.
	b.Label(join)
	b.OpI(isa.OpADD, isa.W32, s5, s5, 1)
	b.OpI(isa.OpSUB, isa.W32, s7, s7, 1)
	b.CondBranch(isa.OpBNE, s7, noflip)
	b.OpI(isa.OpXOR, isa.W8, s6, s6, 1)
	b.Lda(s7, rz, int64(period))
	b.Label(noflip)
	b.OpI(isa.OpCMPLT, isa.W32, t7, s5, int64(blocks))
	b.CondBranch(isa.OpBNE, t7, block)

	b.Out(isa.W64, t6)
	b.Out(isa.W32, s5)
}
