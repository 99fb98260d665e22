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
