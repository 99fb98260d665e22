package power

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
	params   Params
	modes    []GatingMode
	sext     bool // Meter.SignExtendToCache of every meter
	tabs     []bankTab
	accesses [NumStructures]int64
	// accrue[s] is the meters that accrue s: tabs[:1] for an ungated
	// structure, every meter otherwise.
	accrue [NumStructures][]bankTab
}

// bankTab is one meter's energy tables and accumulators.
type bankTab struct {
	energy [NumStructures]float64
	// value[s][swWidth][sig] is the energy of a value access (sig is
	// never 0).
	value [NumStructures][bankWidths][bankWidths]float64
	// full[s] is the energy of a full-width (8-byte) access:
	// AccessCacheValue under SignExtendToCache.
	full [NumStructures]float64
}

// bankWidths is the span of the table's software-width and
// significant-byte axes (0–8).
const bankWidths = 9

// NewBank returns a bank accruing one meter per mode, in order.
// signExtendToCache sets every meter's SignExtendToCache.
func NewBank(params Params, modes []GatingMode, signExtendToCache bool) *Bank {
	b := &Bank{
		params: params,
		modes:  append([]GatingMode(nil), modes...),
		sext:   signExtendToCache,
		tabs:   make([]bankTab, len(modes)),
	}
	for s := range b.accrue {
		b.accrue[s] = b.tabs
		if params.Gated[s] == 0 {
			b.accrue[s] = b.tabs[:min(1, len(modes))]
		}
	}
	for i, mode := range modes {
		m := NewMeter(params, mode)
		t := &b.tabs[i]
		for s := Structure(0); s < NumStructures; s++ {
			t.full[s] = m.bytesEnergy(s, 8)
			for sw := range bankWidths {
				for sig := 1; sig < bankWidths; sig++ {
					t.value[s][sw][sig] = m.valueEnergy(s, activeBytesSig(mode, sw, sig))
				}
			}
		}
	}
	return b
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

// AccessValue records on every meter an access moving value through an
// opcode of swWidth bytes (Meter.AccessValue).
func (b *Bank) AccessValue(s Structure, swWidth int, value int64) {
	b.AccessSig(s, swWidth, SignificantBytes(value))
}

// AccessSig is AccessValue for a value whose SignificantBytes is sig, for
// callers that reuse one significance scan across several accesses.
func (b *Bank) AccessSig(s Structure, swWidth, sig int) {
	b.accesses[s]++
	tabs := b.accrue[s]
	for i := range tabs {
		t := &tabs[i]
		t.energy[s] += t.value[s][swWidth][sig]
	}
}

// AccessCacheSig records a data-cache access (Meter.AccessCacheValue) of
// a value whose SignificantBytes is sig.
func (b *Bank) AccessCacheSig(s Structure, swWidth, sig int) {
	if !b.sext {
		b.AccessSig(s, swWidth, sig)
		return
	}
	b.accesses[s]++
	tabs := b.accrue[s]
	for i := range tabs {
		t := &tabs[i]
		t.energy[s] += t.full[s]
	}
}

// Meters returns one freshly built Meter per mode, in NewBank order,
// holding the accesses and energy accrued so far (no idle cycles).
func (b *Bank) Meters() []*Meter {
	ms := make([]*Meter, len(b.modes))
	for i, mode := range b.modes {
		m := NewMeter(b.params, mode)
		m.SignExtendToCache = b.sext
		m.Accesses = b.accesses
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
