// Package progen generates OG64 programs deterministically from a seed.
// It opens the workload space beyond the eight hand-built SPEC95-analog
// kernels: each generated program belongs to a behavioral family that
// targets a chosen region of the dynamic-width spectrum the paper's
// figures sweep (narrow byte codes at one end, pointer-chasing wide codes
// at the other), scaled by a size class.
//
// Seeding contract: the same (family, seed, class) always produces the
// same static code — byte-identical instruction image, label set and data
// layout — across runs, platforms and goroutines (the generator is pure;
// it owns its RNG state and never consults global state). The ref variant
// of a generation differs from the train variant only in loop-bound
// immediates and data-segment contents, never in instruction count or
// shape, satisfying the train/ref layout contract vrs.Specialize enforces.
//
// Generated programs are valid by construction — they build through
// asm.Builder, pass prog.Validate/Analyze, halt within the emulator's
// default fuel, keep every memory access inside their data segment, and
// respect the calling convention (callees touch caller-saved registers
// only; GP/SP are never written) — so the whole pipeline (VRP, VRS,
// timing, power, trace capture/replay) runs on them unmodified. The
// differential harness (progen/difftest) leans on this to assert the
// substrate's equivalence invariants on arbitrary seeds.
package progen

import (
	"fmt"

	"opgate/internal/asm"
	"opgate/internal/isa"
	"opgate/internal/prog"
)

// Family is a behavioral program family. Families differ in the
// instruction mix and, above all, in the dynamic operand-width character
// of the code they emit.
type Family int

// The behavioral families.
const (
	// Narrow emits byte/halfword arithmetic over byte arrays with masked
	// accumulators — the compress/ijpeg end of the width spectrum.
	Narrow Family = iota
	// Wide emits 64-bit mixing chains (multiply, xor-shift) over full-range
	// words — almost everything is genuinely 8 bytes wide.
	Wide
	// Pointer emits pointer-chasing loads and stores over a randomized
	// node ring: 5-byte addresses dominate, with narrow payload updates.
	Pointer
	// Branchy emits data-dependent compare/branch cascades over narrow
	// state — the interpreter-like middle of the spectrum.
	Branchy
	// Stream emits loop-nest streaming over a 2D array at a fixed narrow
	// element width with multiply-accumulate reductions.
	Stream
	// Churn emits mixed-width register churn: random ALU ops at random
	// widths over a rotating register set, with periodic memory traffic.
	Churn

	numFamilies
)

// NumFamilies is the number of behavioral families.
const NumFamilies = int(numFamilies)

var familyNames = [...]string{
	Narrow:  "narrow",
	Wide:    "wide",
	Pointer: "pointer",
	Branchy: "branchy",
	Stream:  "stream",
	Churn:   "churn",
}

// Families lists every behavioral family.
func Families() []Family {
	fs := make([]Family, NumFamilies)
	for i := range fs {
		fs[i] = Family(i)
	}
	return fs
}

// String names the family.
func (f Family) String() string {
	if f >= 0 && int(f) < len(familyNames) {
		return familyNames[f]
	}
	return fmt.Sprintf("Family(%d)", int(f))
}

// ParseFamily converts a family name to a Family.
func ParseFamily(s string) (Family, error) {
	for i, name := range familyNames {
		if name == s {
			return Family(i), nil
		}
	}
	return 0, fmt.Errorf("progen: unknown family %q", s)
}

// Class scales a generation: array footprints and trip counts grow with
// the class, so dynamic lengths span roughly 10^4 (Small) to 10^6 (Large)
// retired instructions.
type Class int

// Size classes.
const (
	Small Class = iota
	Medium
	Large

	numClasses
)

var classNames = [...]string{
	Small:  "small",
	Medium: "medium",
	Large:  "large",
}

// String names the size class.
func (c Class) String() string {
	if c >= 0 && int(c) < len(classNames) {
		return classNames[c]
	}
	return fmt.Sprintf("Class(%d)", int(c))
}

// ParseClass converts a class name to a Class.
func ParseClass(s string) (Class, error) {
	for i, name := range classNames {
		if name == s {
			return Class(i), nil
		}
	}
	return 0, fmt.Errorf("progen: unknown size class %q", s)
}

// elems returns the class's array footprint in elements.
func (c Class) elems() int {
	switch c {
	case Medium:
		return 1024
	case Large:
		return 4096
	}
	return 256
}

// refScale multiplies ref-variant trip counts relative to train, keeping
// ref runs strictly longer (the registry's train/ref health contract).
const refScale = 3

// Generate builds the (family, seed, class) program. ref selects the
// reference-input variant: same static code shape as the train variant,
// larger loop-bound immediates and reseeded data contents.
func Generate(f Family, seed uint64, c Class, ref bool) (*prog.Program, error) {
	if f < 0 || f >= numFamilies {
		return nil, fmt.Errorf("progen: unknown family %d", int(f))
	}
	if c < 0 || c >= numClasses {
		return nil, fmt.Errorf("progen: unknown size class %d", int(c))
	}
	g := &gen{
		b: asm.NewBuilder(),
		// The code stream must be identical for the train and ref variants
		// of a generation (layout contract); only the input stream sees ref.
		code:  newRNG(seed, uint64(f), uint64(c), 0xC0DE),
		input: newRNG(seed, uint64(f), uint64(c), 0xDA7A+b2u(ref)),
		class: c,
		ref:   ref,
	}
	g.b.Func("main")
	g.family(f)
	g.b.Halt()
	g.flush()
	if g.err != nil {
		return nil, fmt.Errorf("progen: %s/%s/%d: %w", f, c, seed, g.err)
	}
	p, err := g.b.Build()
	if err != nil {
		return nil, fmt.Errorf("progen: %s/%s/%d: %w", f, c, seed, err)
	}
	return p, nil
}

// family dispatches to the behavioral family's body generator. Bodies
// assume an open function: they emit the family's data segment and code
// (including its observable Out instructions) but no Func or Halt, so
// one body is a complete single-family program under Generate's main/
// Halt frame and one phase of a composite under GeneratePhased's.
func (g *gen) family(f Family) {
	switch f {
	case Narrow:
		g.narrow()
	case Wide:
		g.wide()
	case Pointer:
		g.pointer()
	case Branchy:
		g.branchy()
	case Stream:
		g.stream()
	case Churn:
		g.churn()
	}
}

// flush emits the deferred callee functions (stream's reduce) after the
// entry function is closed — callees are whole functions, so a body
// embedded mid-main registers them here instead of emitting inline.
func (g *gen) flush() {
	for _, fn := range g.deferred {
		fn()
	}
	g.deferred = nil
}

// trips scales a train-variant trip count by the variant multiplier.
func (g *gen) trips(train int) int {
	if g.ref {
		return train * refScale
	}
	return train
}

// gen carries one generation: the builder, the two RNG streams, and a
// label counter for unique control-flow labels. pfx namespaces data
// symbols and callee names when a body is embedded as one phase of a
// composite (empty for single-family generations, so their programs are
// unchanged); deferred collects callee emitters for flush.
type gen struct {
	b        *asm.Builder
	code     *rng // drives code shape; identical across train/ref
	input    *rng // drives data contents; reseeded for ref (trips scales counts)
	class    Class
	ref      bool
	label    int
	pfx      string
	deferred []func()
	err      error
}

// sym namespaces a data symbol or callee name with the phase prefix.
func (g *gen) sym(name string) string { return g.pfx + name }

func (g *gen) fail(format string, args ...any) {
	if g.err == nil {
		g.err = fmt.Errorf(format, args...)
	}
}

// lbl returns a fresh program-unique label.
func (g *gen) lbl(prefix string) string {
	g.label++
	return fmt.Sprintf("%s_%d", prefix, g.label)
}

// Register shorthands (mirror internal/workload: t1..t8 caller-saved,
// s1..s7 callee-saved, rz the zero register). Generated callees touch only
// t-registers, preserving the convention VRP's call transfer relies on.
const (
	t1 = isa.Reg(1)
	t2 = isa.Reg(2)
	t3 = isa.Reg(3)
	t4 = isa.Reg(4)
	t5 = isa.Reg(5)
	t6 = isa.Reg(6)
	t7 = isa.Reg(7)
	t8 = isa.Reg(8)
	s1 = isa.Reg(9)
	s2 = isa.Reg(10)
	s3 = isa.Reg(11)
	s4 = isa.Reg(12)
	s5 = isa.Reg(13)
	s6 = isa.Reg(14)
	s7 = isa.Reg(15)
	rz = isa.Reg(isa.ZeroReg)
)

// rng is a splitmix64-seeded xorshift generator; generation draws from it
// exclusively, so programs are reproducible bit-for-bit.
type rng struct{ x uint64 }

// newRNG folds the seed parts through splitmix64 into one nonzero state.
func newRNG(parts ...uint64) *rng {
	h := uint64(0x9E3779B97F4A7C15)
	for _, p := range parts {
		h += p + 0x9E3779B97F4A7C15
		h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9
		h = (h ^ (h >> 27)) * 0x94D049BB133111EB
		h ^= h >> 31
	}
	if h == 0 {
		h = 0x9E3779B97F4A7C15
	}
	return &rng{x: h}
}

func (r *rng) next() uint64 {
	r.x ^= r.x << 13
	r.x ^= r.x >> 7
	r.x ^= r.x << 17
	return r.x
}

// intn returns a value in [0, n).
func (r *rng) intn(n int) int {
	return int(r.next() % uint64(n))
}

// between returns a value in [lo, hi].
func (r *rng) between(lo, hi int) int {
	return lo + r.intn(hi-lo+1)
}

// bytes fills a fresh buffer with n random bytes below limit.
func (r *rng) bytes(n, limit int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(r.intn(limit))
	}
	return out
}

// cycle returns a single-cycle permutation of [0,n) (Sattolo's algorithm),
// so a pointer chase starting anywhere visits every node.
func (r *rng) cycle(n int) []int {
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.intn(i)
		perm[i], perm[j] = perm[j], perm[i]
	}
	return perm
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
