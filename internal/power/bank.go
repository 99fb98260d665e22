package power

import "slices"

// Bank is the table-driven power-accounting stage of a fused simulation:
// it accrues every access under several gating modes at once. A timing
// model describes each access as (structure, software width, value) and
// never consults a gating mode, so one traversal of a retirement stream
// can feed any number of modes.
//
// No mode looks at a value beyond its significant-byte count, so at
// construction the bank tabulates, per meter, the energy of every
// (structure, software width 0–8, significant bytes 1–8) triple through
// the exact expression Meter.AccessValue evaluates. Per access the bank
// computes SignificantBytes once and adds one table entry per meter; the
// sums are bit-identical to feeding each Meter the same call sequence.
// Access counts are mode-independent and kept once. So is the energy of
// an ungated structure (Gated[s] == 0): every access to it adds exactly
// Fixed[s] in every mode, whatever the access kind, so only the first
// meter accrues it and Meters copies that sum into the others — the same
// additions in the same order, hence the same bits.
type Bank struct {
	params Params
	modes  []GatingMode // per meter: the requested modes, then GateSoftware per overlay
	tabs   []bankTab    // one per requested mode, then one per overlay
	over   []bankTab    // the overlays: tabs[len(requested modes):]
	// accesses[s] counts the accesses to s.
	accesses [NumStructures]int64
	// accrue[s] is the meters that accrue s: tabs[:1] for an ungated
	// structure, every meter otherwise. Of those, opMeters[s] are the
	// requested modes and opOver[s] the overlays.
	accrue, opMeters, opOver [NumStructures][]bankTab
}

// bankTab is one meter's energy tables and accumulators.
type bankTab struct {
	energy [NumStructures]float64
	// value[s][swWidth][sig] is the energy of a value access (sig is
	// never 0).
	value [NumStructures][bankWidths][bankWidths]float64
	// widths is an overlay's software width per static instruction (nil
	// for a requested mode), and width its entry for the current one.
	widths []uint8
	width  uint8
}

// bankWidths is the span of the table's software-width and
// significant-byte axes (0–8).
const bankWidths = 9

// NewBank returns a bank accruing one meter per mode, in order, then one
// software overlay per entry of overlays.
//
// An overlay is a GateSoftware meter that takes an instruction's operand
// width from its own table, by static index, instead of from the caller,
// so over a program's accesses it accrues, bit for bit, what a
// GateSoftware meter accrues over a width-only rewrite's (software gating
// never looks at a value). The caller keeps every width at most 8 and
// calls Begin before each instruction's operand accesses.
func NewBank(params Params, modes []GatingMode, overlays ...[]uint8) *Bank {
	all := slices.Clone(modes)
	for range overlays {
		all = append(all, GateSoftware)
	}
	b := &Bank{
		params: params,
		modes:  all,
		tabs:   make([]bankTab, len(all)),
	}
	b.over = b.tabs[len(modes):]
	for i, w := range overlays {
		b.over[i].widths = w
	}
	for s := range b.accrue {
		b.accrue[s] = b.tabs
		if params.Gated[s] == 0 {
			b.accrue[s] = b.tabs[:min(1, len(all))]
		}
		b.opMeters[s] = b.accrue[s][:min(len(modes), len(b.accrue[s]))]
		b.opOver[s] = b.accrue[s][len(b.opMeters[s]):]
	}
	for i, mode := range all {
		m := NewMeter(params, mode)
		t := &b.tabs[i]
		for s := Structure(0); s < NumStructures; s++ {
			for sw := range bankWidths {
				for sig := 1; sig < bankWidths; sig++ {
					t.value[s][sw][sig] = m.valueEnergy(s, activeBytesSig(mode, sw, sig))
				}
			}
		}
	}
	return b
}

// Begin opens static instruction idx: each overlay takes its width for
// idx as the operand width of the accesses that follow.
func (b *Bank) Begin(idx int32) {
	for i := range b.over {
		t := &b.over[i]
		t.width = t.widths[idx]
	}
}

// AccessFixed records a width-independent access on every meter.
func (b *Bank) AccessFixed(s Structure) {
	b.accesses[s]++
	e := b.params.Fixed[s]
	tabs := b.accrue[s]
	for i := range tabs {
		tabs[i].energy[s] += e
	}
}

// AccessValue records on every meter, overlays included, an access
// moving value at a width of swWidth bytes that no opcode narrows, such
// as an address (Meter.AccessValue).
func (b *Bank) AccessValue(s Structure, swWidth int, value int64) {
	b.accesses[s]++
	sig := SignificantBytes(value)
	tabs := b.accrue[s]
	for i := range tabs {
		t := &tabs[i]
		t.energy[s] += t.value[s][swWidth][sig]
	}
}

// AccessSig records an operand access of the current instruction
// (Begin), moving a value whose SignificantBytes is sig through an opcode
// of swWidth bytes on every requested meter and of the overlay's own
// width on every overlay (Meter.AccessValue).
func (b *Bank) AccessSig(s Structure, swWidth, sig int) {
	b.accesses[s]++
	tabs := b.opMeters[s]
	for i := range tabs {
		t := &tabs[i]
		t.energy[s] += t.value[s][swWidth][sig]
	}
	over := b.opOver[s]
	for i := range over {
		t := &over[i]
		t.energy[s] += t.value[s][t.width][sig]
	}
}

// Meters returns one freshly built Meter per mode and then per overlay,
// in NewBank order, holding the accesses and energy accrued so far (no
// idle cycles).
func (b *Bank) Meters() []*Meter {
	ms := make([]*Meter, len(b.modes))
	for i, mode := range b.modes {
		m := NewMeter(b.params, mode)
		for s := range m.Accesses {
			m.Accesses[s] = b.accesses[s]
		}
		m.Energy = b.tabs[i].energy
		for s, tabs := range b.accrue {
			if i >= len(tabs) {
				m.Energy[s] = b.tabs[0].energy[s]
			}
		}
		ms[i] = m
	}
	return ms
}
