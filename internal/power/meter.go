package power

import "fmt"

// Params holds the per-structure energy coefficients (nanojoule-scale
// arbitrary units). Access energy for s with k active bytes is
//
//	Fixed[s] + Gated[s]*WidthProfile(k) + Gated[s]*tagOverhead
//
// and every cycle adds Idle[s] (clocking and leakage; this is what keeps
// whole-processor savings below the per-structure savings, as in Fig. 3).
type Params struct {
	Fixed [NumStructures]float64
	Gated [NumStructures]float64
	Idle  [NumStructures]float64
}

// DefaultParams returns coefficients calibrated so the per-structure
// savings of the software scheme land in the zones of Fig. 3: ~15% for the
// instruction queue, rename buffers, register file and result buses, ~18%
// for the functional units, small single digits for LSQ and L1, and ~6%
// for the processor as a whole. The FU gated maximum is 6.0 so that the
// regenerated Table 1 matches the paper's integers exactly.
func DefaultParams() Params {
	var p Params
	set := func(s Structure, fixed, gated, idle float64) {
		p.Fixed[s] = fixed
		p.Gated[s] = gated
		p.Idle[s] = idle
	}
	//                 fixed  gated  idle
	set(Rename /*  */, 1.70, 0.00, 1.00)
	set(BPred /*   */, 2.20, 0.00, 1.20)
	set(IQ /*      */, 1.10, 1.05, 0.30)
	set(ROB /*     */, 1.60, 0.00, 0.70)
	set(RenameBuf /**/, 0.60, 0.60, 0.15)
	set(LSQ /*     */, 1.60, 0.30, 0.20)
	set(RegFile /* */, 1.00, 1.00, 0.25)
	set(ICache /*  */, 2.60, 0.00, 1.40)
	set(DCache /*  */, 3.40, 0.40, 0.62)
	set(L2Cache /* */, 10.00, 0.00, 2.20)
	set(FU /*      */, 3.60, 6.00, 0.40)
	set(ResultBus /**/, 0.70, 0.70, 0.20)
	return p
}

// Meter is one gating mode's energy and access counts by structure, as
// a Bank accrues them (Bank.Meters), plus the idle energy of Tick.
type Meter struct {
	Params   Params
	Mode     GatingMode
	Energy   [NumStructures]float64
	Accesses [NumStructures]int64
	Cycles   int64
}

// NewMeter returns a meter with the given coefficients and gating mode.
func NewMeter(params Params, mode GatingMode) *Meter {
	return &Meter{Params: params, Mode: mode}
}

// valueEnergy is the energy of one value access to s with k active bytes
// (0–8) under mode: the fixed part, the gated part scaled by the width
// profile, and the hardware schemes' per-access tag-array energy. Bank
// tabulates every access through it.
func valueEnergy(p Params, mode GatingMode, s Structure, k int) float64 {
	e := p.Fixed[s] + p.Gated[s]*WidthProfile(k)
	e += p.Gated[s] * mode.TagOverheadBytes() / 8.0
	return e
}

// Tick charges idle energy for n cycles across all structures.
func (m *Meter) Tick(n int64) {
	m.Cycles += n
	for s := Structure(0); s < NumStructures; s++ {
		m.Energy[s] += m.Params.Idle[s] * float64(n)
	}
}

// Total returns the whole-processor energy.
func (m *Meter) Total() float64 {
	var t float64
	for s := Structure(0); s < NumStructures; s++ {
		t += m.Energy[s]
	}
	return t
}

// Savings returns the fractional per-structure and total energy savings of
// m relative to a baseline meter.
func Savings(baseline, gated *Meter) (perStructure [NumStructures]float64, total float64) {
	for s := Structure(0); s < NumStructures; s++ {
		if baseline.Energy[s] > 0 {
			perStructure[s] = 1 - gated.Energy[s]/baseline.Energy[s]
		}
	}
	if bt := baseline.Total(); bt > 0 {
		total = 1 - gated.Total()/bt
	}
	return perStructure, total
}

// EnergyDelay2Saving returns the fractional ED² improvement of a (energy,
// cycles) point against a baseline: 1 - (E/E0)·(D/D0)².
func EnergyDelay2Saving(baseE float64, baseCycles int64, e float64, cycles int64) float64 {
	if baseE <= 0 || baseCycles <= 0 {
		return 0
	}
	re := e / baseE
	rd := float64(cycles) / float64(baseCycles)
	return 1 - re*rd*rd
}

// ALUEnergy returns the FU access energy for an operation at the given
// width in bytes (used by Table 1 and the VRS saving model).
func ALUEnergy(p Params, bytes int) float64 {
	return p.Fixed[FU] + p.Gated[FU]*WidthProfile(bytes)
}

// OpEnergy returns the full datapath energy of one ALU-class instruction
// execution at the given operand width: the instruction queue entry, two
// register reads and one write, the rename buffer and result bus, and the
// functional unit. This is the per-instruction-type energy the VRS saving
// model observes (§3.1: "empirically defined for each instruction type and
// operand-width through the observation of its energy requirements").
func OpEnergy(p Params, bytes int) float64 {
	e := 0.0
	acc := func(s Structure, times float64) {
		e += times * (p.Fixed[s] + p.Gated[s]*WidthProfile(bytes))
	}
	acc(IQ, 1)
	acc(RegFile, 3) // two reads + one write
	acc(RenameBuf, 1)
	acc(ResultBus, 1)
	acc(FU, 1)
	return e
}

// OpSavingsDelta is the per-execution energy saved by narrowing an
// ALU-class instruction from oldBytes to newBytes.
func OpSavingsDelta(p Params, oldBytes, newBytes int) float64 {
	return OpEnergy(p, oldBytes) - OpEnergy(p, newBytes)
}

// ALUSavingsTable regenerates the paper's Table 1: the energy saved when
// an ALU operation moves from a source width (row) to a destination width
// (column); negative entries mean the destination is wider.
func ALUSavingsTable(p Params) [4][4]float64 {
	widths := [4]int{8, 4, 2, 1} // 64, 32, 16, 8 bits — paper's order
	var t [4][4]float64
	for i, src := range widths {
		for j, dst := range widths {
			t[i][j] = ALUEnergy(p, src) - ALUEnergy(p, dst)
		}
	}
	return t
}

// FormatALUTable renders Table 1 in the paper's layout.
func FormatALUTable(t [4][4]float64) string {
	hdr := [4]string{"64", "32", "16", "8"}
	out := "Dest\\Src    64     32     16      8\n"
	for i := 0; i < 4; i++ {
		row := fmt.Sprintf("%4s  ", hdr[i])
		for j := 0; j < 4; j++ {
			if i == j {
				row += "      -"
				continue
			}
			row += fmt.Sprintf(" %6.2f", t[j][i])
		}
		out += row + "\n"
	}
	return out
}
