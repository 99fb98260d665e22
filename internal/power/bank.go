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
// adds, in the same order: the sums are bit-identical. Lanes past the
// requested modes hold +0, which leaves a sum's bits alone (no sum is
// -0); an overlay's lane then adds its own entry.
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

// overlay is a software overlay's lane, widths and current RowBase (Begin).
type overlay struct {
	lane   int
	widths []uint8
	base   int
}

// bankWidths is the span of the rows' software-width and significant-byte
// axes (0–8).
const bankWidths = 9

// RowBase returns the offset of software width swWidth in a bank's rows:
// an access at swWidth moving sig significant bytes reads row
// RowBase(swWidth)+sig (AccessSig).
func RowBase(swWidth int) int { return swWidth * bankWidths }

// bankRows are the energy rows of one parameter set and requested-mode
// list, read-only once built (sharedRows).
type bankRows struct {
	// value[s][RowBase(sw)+sig][i] is what requested mode i adds for an
	// access to s (sig is never 0), +0 past the requested modes; soft is
	// GateSoftware's entry, which each overlay reads at its own width.
	value [NumStructures][bankWidths * bankWidths][MaxMeters]float64
	soft  [NumStructures][bankWidths * bankWidths]float64
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
				j := RowBase(sw) + sig
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
// calls Begin before each instruction's operand accesses.
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

// Begin opens static instruction idx: each overlay takes its width for
// idx as the operand width of the accesses that follow.
func (b *Bank) Begin(idx int32) {
	for i := range b.over {
		o := &b.over[i]
		o.base = RowBase(int(o.widths[idx]))
	}
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

// AccessValue records on every meter, overlays included, an access
// moving value at a width of swWidth bytes that no opcode narrows, such
// as an address.
func (b *Bank) AccessValue(s Structure, swWidth int, value int64) {
	b.accesses[s]++
	j := RowBase(swWidth) + SignificantBytes(value)
	a := &b.acc[s]
	addRow(a, &b.rows.value[s][j])
	for i := range b.over {
		a[b.over[i].lane] += b.rows.soft[s][j]
	}
}

// AccessSig records an operand access of the current instruction
// (Begin) moving a value whose SignificantBytes is sig, through an opcode
// whose width has row base base (RowBase) on every requested meter and
// of the overlay's own width on every overlay.
func (b *Bank) AccessSig(s Structure, base, sig int) {
	b.accesses[s]++
	a := &b.acc[s]
	addRow(a, &b.rows.value[s][base+sig])
	for i := range b.over {
		o := &b.over[i]
		a[o.lane] += b.rows.soft[s][o.base+sig]
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
