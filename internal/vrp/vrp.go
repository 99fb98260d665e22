// Package vrp implements the paper's Value Range Propagation (§2): a
// conservative, binary-level, interprocedural analysis that bounds the
// value range of every integer register operand, augmented with "useful"
// (demanded-byte) backward propagation, loop trip-count ranges, and
// wrap-around-aware arithmetic. Its output assigns each instruction the
// narrowest opcode width that preserves program semantics.
package vrp

import (
	"fmt"

	"opgate/internal/interval"
	"opgate/internal/isa"
	"opgate/internal/prog"
)

// Mode selects between the paper's two analyses of Fig. 2.
type Mode int

const (
	// Conventional propagates value ranges only: an instruction's width
	// is the significant bytes of its result range.
	Conventional Mode = iota
	// Useful additionally runs the backward demanded-byte analysis
	// (§2.2.5): bits that never influence program results are discarded,
	// allowing widths below the significant size of the value.
	Useful
)

// String names the mode.
func (m Mode) String() string {
	if m == Conventional {
		return "conventional"
	}
	return "useful"
}

// Options configures an analysis run. The zero value is the conventional
// analysis over the paper's opcode set with every refinement on.
type Options struct {
	// Mode selects conventional or useful (demanded-byte) ranges.
	Mode Mode
	// Opcodes restricts assignable widths per operation class; nil means
	// the paper's extension set (§4.3).
	Opcodes *isa.OpcodeSet
	// DisableLoopAnalysis turns off §2.3 trip-count ranges (ablation).
	DisableLoopAnalysis bool
	// DisableBranchRefinement turns off §2.2.4 edge constraints (ablation).
	DisableBranchRefinement bool
}

// Fixpoint bounds: maxRounds limits the interprocedural iteration (the
// paper's "limit on the number of traversals"), maxPasses the
// intraprocedural one within a round.
const (
	maxRounds = 10
	maxPasses = 40
)

func (o *Options) defaults() {
	if o.Opcodes == nil {
		o.Opcodes = isa.PaperOpcodeSet()
	}
}

// Result is the analysis outcome for one program.
type Result struct {
	Prog *prog.Program
	Opts Options

	// Per-instruction facts, indexed by absolute instruction index.
	ResRange []interval.Interval // destination value range (Empty: none/unreachable)
	RaRange  []interval.Interval // first operand range at this point
	RbRange  []interval.Interval // second operand range (Const for immediates)
	Demand   []int               // demanded bytes of the destination (1..8)
	Width    []isa.Width         // assigned opcode width

	// DefUse chains per function index (shared with VRS).
	DefUse []*prog.DefUse

	summaries []*summary
}

// summary is a function's interprocedural contract.
type summary struct {
	args    [prog.NumArgRegs]interval.Interval
	ret     interval.Interval
	reached bool
}

// Analyze runs value range propagation over the program and computes the
// width assignment. The program is not modified; call Apply for a
// re-encoded copy.
func Analyze(p *prog.Program, opts Options) (*Result, error) {
	opts.defaults()
	n := len(p.Ins)
	r := &Result{
		Prog:     p,
		Opts:     opts,
		ResRange: make([]interval.Interval, n),
		RaRange:  make([]interval.Interval, n),
		RbRange:  make([]interval.Interval, n),
		Demand:   make([]int, n),
		Width:    make([]isa.Width, n),
		DefUse:   make([]*prog.DefUse, len(p.Funcs)),
	}
	for i := range p.Funcs {
		r.DefUse[i] = prog.BuildDefUse(p, p.Funcs[i])
	}
	if err := r.propagate(); err != nil {
		return nil, err
	}
	r.computeDemand()
	r.assignWidths()
	return r, nil
}

// Apply returns a copy of the program re-encoded with the assigned widths.
// Per §4.4, VRP "does not affect the performance of the benchmarks because
// it just re-encodes the instructions with narrower opcodes": no
// instruction is added or removed.
func (r *Result) Apply() *prog.Program {
	q := r.Prog.Clone()
	for i := range q.Ins {
		q.Ins[i].Width = r.Width[i]
	}
	return q
}

// WidthHistogram tallies width-bearing dynamic or static instructions.
// Branch-class and other width-less instructions are excluded, as in the
// paper ("branch instructions are not taken into account because they
// manipulate addresses").
type WidthHistogram struct {
	Count [4]int64 // by width index 0=8b .. 3=64b
}

// Add accumulates n occurrences of width w.
func (h *WidthHistogram) Add(w isa.Width, n int64) {
	switch w {
	case isa.W8:
		h.Count[0] += n
	case isa.W16:
		h.Count[1] += n
	case isa.W32:
		h.Count[2] += n
	default:
		h.Count[3] += n
	}
}

// Total returns the histogram mass.
func (h *WidthHistogram) Total() int64 {
	return h.Count[0] + h.Count[1] + h.Count[2] + h.Count[3]
}

// Fraction returns the share of width index i (0..3).
func (h *WidthHistogram) Fraction(i int) float64 {
	t := h.Total()
	if t == 0 {
		return 0
	}
	return float64(h.Count[i]) / float64(t)
}

// CountsWidth reports whether the instruction participates in width
// statistics (integer computation and memory ops; not control flow).
func CountsWidth(op isa.Op) bool {
	switch isa.ClassOf(op) {
	case isa.ClassBranch, isa.ClassNone, isa.ClassOther:
		return false
	}
	return true
}

// StaticHistogram tallies the width assignment over static instructions.
func (r *Result) StaticHistogram() WidthHistogram {
	var h WidthHistogram
	for i := range r.Prog.Ins {
		if CountsWidth(r.Prog.Ins[i].Op) {
			h.Add(r.Width[i], 1)
		}
	}
	return h
}

// String summarises the analysis for diagnostics.
func (r *Result) String() string {
	h := r.StaticHistogram()
	return fmt.Sprintf("vrp(%s): %d ins, widths 8b=%d 16b=%d 32b=%d 64b=%d",
		r.Opts.Mode, len(r.Prog.Ins), h.Count[0], h.Count[1], h.Count[2], h.Count[3])
}
