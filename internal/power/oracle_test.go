package power

// The per-call accounting below is the definition Bank is held to: a
// Meter fed one call per access, value by value. The simulator accrues
// through Bank alone, so the definition lives with the tests.

// AccessFixed records a width-independent access (fetch, predictor lookup,
// rename table read).
func (m *Meter) AccessFixed(s Structure) {
	m.Accesses[s]++
	m.Energy[s] += m.Params.Fixed[s]
}

// AccessValue records an access that moves one data value. swWidth is the
// opcode width in bytes; value is the datum (for the hardware tags).
func (m *Meter) AccessValue(s Structure, swWidth int, value int64) {
	m.Accesses[s]++
	m.Energy[s] += valueEnergy(m.Params, m.Mode, s, ActiveBytes(m.Mode, swWidth, value))
}

// ActiveBytes computes the gated byte count for one value under a mode.
func ActiveBytes(mode GatingMode, swWidth int, value int64) int {
	return activeBytesSig(mode, swWidth, SignificantBytes(value))
}

// SizeClass quantises a value's significant bytes to its size class.
func SizeClass(v int64) int { return sizeClassOf(SignificantBytes(v)) }

// charge records one retirement of a static instruction of shape sh at
// software width sw, one AccessValue per access, in the order Bank.Charge
// defines: a memory access's LSQ address at width 8, LSQ data and data
// cache; the instruction queue at the wider source; the register reads
// of srcA and of srcB (ReadsB times) and the register write; the rename
// buffer and result bus; the functional unit at the wider source.
func (m *Meter) charge(sh Shape, sw int, addr, value, srcA, srcB int64) {
	wider := srcA
	if SignificantBytes(srcB) > SignificantBytes(srcA) {
		wider = srcB
	}
	if sh.Mem {
		m.AccessValue(LSQ, 8, addr)
		m.AccessValue(LSQ, sw, value)
		m.AccessValue(DCache, sw, value)
	}
	m.AccessValue(IQ, sw, wider)
	if sh.ReadsA {
		m.AccessValue(RegFile, sw, srcA)
	}
	for range sh.ReadsB {
		m.AccessValue(RegFile, sw, srcB)
	}
	if sh.Writes {
		m.AccessValue(RegFile, sw, value)
		m.AccessValue(RenameBuf, sw, value)
		m.AccessValue(ResultBus, sw, value)
	}
	if sh.FU {
		m.AccessValue(FU, sw, wider)
	}
}
