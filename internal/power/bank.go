package power

import (
	"fmt"
	"slices"
	"sync"
)

// MaxMeters is the most meters a Bank holds, requested modes and overlays
// together: one accumulator lane each.
const MaxMeters = 8

// Bank is the table-driven power-accounting stage of a fused simulation:
// it accrues every access under several gating modes at once. A timing
// model describes each access as (structure, software width, value) and
// never consults a gating mode, so one traversal of a retirement stream
// can feed any number of modes.
//
// Meter i's energy in structure s is lane i of acc[s]. No mode looks at a
// value beyond its significant-byte count, so the energy of every
// (structure, software width 0–8, significant bytes 1–8) access is one
// 8-lane row, built through valueEnergy and shared by every bank of the
// same parameters and requested modes (bankRows). Each access adds one
// row lane by lane, so every meter adds what the tests' per-access oracle
// adds, in the same order: the sums are bit-identical.
//
// Charge takes a whole retirement's value-driven accesses in one call:
// first every requested lane, access by access, then every overlay's
// lane, access by access, from the overlay's own width. Each lane's sum
// in each structure is its own accumulator, so only the order of the
// additions within a lane matters, and within every lane that order is
// the per-access one. The requested rows hold +0 in the overlay lanes,
// and adding +0 leaves a sum's bits alone (no sum is -0), so the
// requested lanes' additions leave every overlay lane's sum as it is.
//
// Access counts are mode-independent and kept once. So is the energy of
// an ungated structure (Gated[s] == 0): every access to it adds exactly
// Fixed[s] in every mode, so AccessFixed accrues it in lane 0 alone and
// Meters copies lane 0 into the others — the same additions in the same
// order, hence the same bits.
type Bank struct {
	params   Params
	modes    []GatingMode // per lane: the requested modes, then GateSoftware per overlay
	rows     *bankRows
	over     []overlay
	acc      [NumStructures][MaxMeters]float64 // acc[s][i]: lane i's energy in s
	accesses [NumStructures]int64
}

// overlay is a software overlay's lane and its operand width per static
// instruction.
type overlay struct {
	lane   int
	widths []uint8
}

// bankWidths is the span of the rows' software-width and significant-byte
// axes (0–8); an access at software width sw moving sig significant bytes
// reads row sw*bankWidths+sig.
const bankWidths = 9

// rowSpan is the number of rows per structure, bankWidths² padded to a
// power of two so that a row index masked by rowMask needs no bounds
// check; the padding rows are never read.
const (
	rowSpan = 128
	rowMask = rowSpan - 1
)

// bankRows are the energy rows of one parameter set and requested-mode
// list, read-only once built (sharedRows).
type bankRows struct {
	// value[s][sw*bankWidths+sig][i] is what requested mode i adds for
	// an access to s (sig is never 0), +0 past the requested modes; soft
	// is GateSoftware's entry, which each overlay reads at its own width.
	value [NumStructures][rowSpan][MaxMeters]float64
	soft  [NumStructures][rowSpan]float64
}

// rowsCache maps a rowsKey to its *bankRows; the module's callers use the
// default parameters and a fixed handful of mode lists.
var rowsCache sync.Map

type rowsKey struct {
	params Params
	n      int
	modes  [MaxMeters]GatingMode
}

// sharedRows returns the rows of params and modes, built on first use.
func sharedRows(params Params, modes []GatingMode) *bankRows {
	k := rowsKey{params: params, n: len(modes)}
	copy(k.modes[:], modes)
	if r, ok := rowsCache.Load(k); ok {
		return r.(*bankRows)
	}
	r := new(bankRows)
	for s := Structure(0); s < NumStructures; s++ {
		for sw := range bankWidths {
			for sig := 1; sig < bankWidths; sig++ {
				j := sw*bankWidths + sig
				r.soft[s][j] = valueEnergy(params, GateSoftware, s, activeBytesSig(GateSoftware, sw, sig))
				for i, mode := range modes {
					r.value[s][j][i] = valueEnergy(params, mode, s, activeBytesSig(mode, sw, sig))
				}
			}
		}
	}
	shared, _ := rowsCache.LoadOrStore(k, r)
	return shared.(*bankRows)
}

// NewBank returns a bank accruing one meter per mode, in order, then one
// software overlay per entry of overlays: 1 to MaxMeters in all.
//
// An overlay is a GateSoftware meter that takes an instruction's operand
// width from its own table, by static index, instead of from the caller,
// so over a program's accesses it accrues, bit for bit, what a
// GateSoftware meter accrues over a width-only rewrite's (software gating
// never looks at a value). The caller keeps every width at most 8 and
// passes Charge each retirement's static index.
func NewBank(params Params, modes []GatingMode, overlays ...[]uint8) (*Bank, error) {
	if n := len(modes) + len(overlays); n == 0 || n > MaxMeters {
		return nil, fmt.Errorf("power: %d meters, a bank holds 1 to %d", n, MaxMeters)
	}
	b := &Bank{params: params, modes: slices.Clone(modes), rows: sharedRows(params, modes)}
	for _, w := range overlays {
		b.over = append(b.over, overlay{lane: len(b.modes), widths: w})
		b.modes = append(b.modes, GateSoftware)
	}
	return b, nil
}

// AccessFixed records a width-independent access (fetch, predictor
// lookup, rename table read) on every meter.
func (b *Bank) AccessFixed(s Structure) {
	b.accesses[s]++
	e := b.params.Fixed[s]
	a := &b.acc[s]
	if b.params.Gated[s] == 0 {
		a[0] += e
		return
	}
	for i := range a {
		a[i] += e
	}
}

// Shape is the energy shape of a static instruction, decoded once: the
// value-driven accesses each of its retirements makes (Charge) and the
// software operand width they move.
type Shape struct {
	Width  uint8 // software operand width in bytes, at most 8
	ReadsB uint8 // register reads of SrcB (a conditional move may read it twice)
	Mem    bool  // accesses memory: the LSQ (address, then data) and the data cache
	ReadsA bool  // reads the first operand (SrcA) from a register
	Writes bool  // writes a register: the register file, rename buffer and result bus
	FU     bool  // occupies a functional unit
}

// Charge records every value-driven access of one retirement of static
// instruction idx, of shape sh, on every meter: a memory access's LSQ
// address (a full-width value no opcode narrows), its LSQ data and its
// data-cache access; the instruction queue; the register reads of SrcA
// and SrcB and the register write; the rename buffer, the result bus and
// the functional unit. The requested meters take each access at sh's
// width, each overlay at its own width for idx. An access moves the
// significant bytes of value, except that the register reads move srcA
// and srcB, and the dual-operand structures (instruction queue,
// functional unit) the wider of the two.
func (b *Bank) Charge(idx int32, sh Shape, addr, value, srcA, srcB int64) {
	acc, n, rows := &b.acc, &b.accesses, &b.rows.value
	sigV := uint(SignificantBytes(value))
	sigA, sigB := uint(SignificantBytes(srcA)), uint(SignificantBytes(srcB))
	sigAB := max(sigA, sigB)
	ja := 8*bankWidths + uint(SignificantBytes(addr))
	w := uint(sh.Width) * bankWidths
	if sh.Mem {
		n[LSQ] += 2
		n[DCache]++
		addRow(&acc[LSQ], &rows[LSQ][ja&rowMask])
		addRow(&acc[LSQ], &rows[LSQ][(w+sigV)&rowMask])
		addRow(&acc[DCache], &rows[DCache][(w+sigV)&rowMask])
	}
	n[IQ]++
	addRow(&acc[IQ], &rows[IQ][(w+sigAB)&rowMask])
	if sh.ReadsA {
		n[RegFile]++
		addRow(&acc[RegFile], &rows[RegFile][(w+sigA)&rowMask])
	}
	for range sh.ReadsB {
		n[RegFile]++
		addRow(&acc[RegFile], &rows[RegFile][(w+sigB)&rowMask])
	}
	if sh.Writes {
		n[RegFile]++
		n[RenameBuf]++
		n[ResultBus]++
		addRow(&acc[RegFile], &rows[RegFile][(w+sigV)&rowMask])
		addRow(&acc[RenameBuf], &rows[RenameBuf][(w+sigV)&rowMask])
		addRow(&acc[ResultBus], &rows[ResultBus][(w+sigV)&rowMask])
	}
	if sh.FU {
		n[FU]++
		addRow(&acc[FU], &rows[FU][(w+sigAB)&rowMask])
	}

	soft := &b.rows.soft
	for _, o := range b.over {
		l := o.lane & (MaxMeters - 1)
		w := uint(o.widths[idx]) * bankWidths
		if sh.Mem {
			acc[LSQ][l] += soft[LSQ][ja&rowMask]
			acc[LSQ][l] += soft[LSQ][(w+sigV)&rowMask]
			acc[DCache][l] += soft[DCache][(w+sigV)&rowMask]
		}
		acc[IQ][l] += soft[IQ][(w+sigAB)&rowMask]
		if sh.ReadsA {
			acc[RegFile][l] += soft[RegFile][(w+sigA)&rowMask]
		}
		for range sh.ReadsB {
			acc[RegFile][l] += soft[RegFile][(w+sigB)&rowMask]
		}
		if sh.Writes {
			acc[RegFile][l] += soft[RegFile][(w+sigV)&rowMask]
			acc[RenameBuf][l] += soft[RenameBuf][(w+sigV)&rowMask]
			acc[ResultBus][l] += soft[ResultBus][(w+sigV)&rowMask]
		}
		if sh.FU {
			acc[FU][l] += soft[FU][(w+sigAB)&rowMask]
		}
	}
}

// addRow adds row r to the accumulators a, lane by lane.
func addRow(a, r *[MaxMeters]float64) {
	a[0] += r[0]
	a[1] += r[1]
	a[2] += r[2]
	a[3] += r[3]
	a[4] += r[4]
	a[5] += r[5]
	a[6] += r[6]
	a[7] += r[7]
}

// Meters returns one freshly built Meter per mode and then per overlay,
// in NewBank order, holding the accesses and energy accrued so far (no
// idle cycles).
func (b *Bank) Meters() []*Meter {
	ms := make([]*Meter, len(b.modes))
	for i, mode := range b.modes {
		m := NewMeter(b.params, mode)
		m.Accesses = b.accesses
		for s := range m.Energy {
			m.Energy[s] = b.acc[s][i]
			if b.params.Gated[s] == 0 {
				m.Energy[s] = b.acc[s][0]
			}
		}
		ms[i] = m
	}
	return ms
}
