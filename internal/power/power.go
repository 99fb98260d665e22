// Package power implements the Wattch-style, activity-counted energy model
// (§4.1) with byte-granular operand gating. Every pipeline structure has a
// fixed per-access cost, a gated (data-width dependent) per-access cost,
// and a per-cycle idle cost. The gated cost scales with the number of
// active bytes through the empirical width profile of the paper's Table 1.
//
// Four gating modes reproduce the paper's configurations: no gating,
// software (opcode widths from VRP/VRS), the two hardware schemes of [9]
// (significance compression: 7 tag bits per word; size compression: 2 tag
// bits encoding 1/2/5/8 bytes), and the cooperative software+hardware
// scheme (§4.7).
package power

import (
	"fmt"
	"math/bits"
)

// Structure enumerates the energy-accounted processor parts (the x-axis of
// Figs. 3, 9 and 14).
type Structure int

// Processor structures.
const (
	Rename Structure = iota
	BPred
	IQ
	ROB
	RenameBuf
	LSQ
	RegFile
	ICache
	DCache
	L2Cache
	FU
	ResultBus
	NumStructures
)

var structureNames = [NumStructures]string{
	"Rename", "BranchPred", "InstrQueue", "ROB", "RenameBufs", "LSQ",
	"RegisterFile", "I-Cache", "D-Cache(L1)", "D-Cache(L2)", "FU", "ResultBus",
}

// String returns the display name used in the figures.
func (s Structure) String() string {
	if s >= 0 && s < NumStructures {
		return structureNames[s]
	}
	return fmt.Sprintf("Structure(%d)", int(s))
}

// Structures lists all accounted structures in figure order.
func Structures() []Structure {
	out := make([]Structure, NumStructures)
	for i := range out {
		out[i] = Structure(i)
	}
	return out
}

// GatingMode selects how active bytes are determined per access.
type GatingMode int

// Gating modes.
const (
	// GateNone is the baseline: every access moves 8 bytes.
	GateNone GatingMode = iota
	// GateSoftware gates by the opcode width (VRP/VRS re-encoding).
	GateSoftware
	// GateHWSignificance gates by the dynamic significant-byte count of
	// each value, with 7 tag bits per 64-bit word.
	GateHWSignificance
	// GateHWSize gates by the dynamic 2-bit size class (1/2/5/8 bytes).
	GateHWSize
	// GateCooperative combines software opcode widths with hardware size
	// tags (§4.7: manipulated values may have 8, 16, 40 or 64 bits).
	GateCooperative
	// GateCooperativeSig combines software opcode widths with the 7-bit
	// significance tags (the "VRP + hdw significance" point of Fig. 15).
	GateCooperativeSig
)

// Modes lists every gating mode in declaration order (index == int(mode)).
func Modes() []GatingMode {
	return []GatingMode{GateNone, GateSoftware, GateHWSignificance, GateHWSize,
		GateCooperative, GateCooperativeSig}
}

// String names the gating mode.
func (g GatingMode) String() string {
	switch g {
	case GateNone:
		return "none"
	case GateSoftware:
		return "software"
	case GateHWSignificance:
		return "hw-significance"
	case GateHWSize:
		return "hw-size"
	case GateCooperative:
		return "cooperative"
	case GateCooperativeSig:
		return "cooperative-sig"
	}
	return fmt.Sprintf("GatingMode(%d)", int(g))
}

// TagOverheadBytes returns the extra per-word storage a mode moves with
// every value (the hardware schemes' tag bits, §4.6).
func (g GatingMode) TagOverheadBytes() float64 {
	switch g {
	case GateHWSignificance, GateCooperativeSig:
		return 7.0 / 16.0 // seven tag bits per data word (tag array port)
	case GateHWSize, GateCooperative:
		return 2.0 / 16.0 // two tag bits per data word
	}
	return 0
}

// WidthProfile returns the fraction of the gated energy consumed when only
// `bytes` of a 64-bit datum are active. The anchor points reproduce the
// paper's Table 1 exactly: relative ALU energies at 1/2/4/8 bytes are
// 0, 3, 5 and 6 units above the 1-byte floor, i.e. fractions 0, 1/2, 5/6
// and 1 of the gated portion; intermediate byte counts interpolate
// linearly.
func WidthProfile(bytes int) float64 {
	switch {
	case bytes <= 1:
		return 0
	case bytes >= 8:
		return 1
	}
	type pt struct {
		b int
		f float64
	}
	anchors := [4]pt{{1, 0}, {2, 0.5}, {4, 5.0 / 6.0}, {8, 1}}
	for i := 0; i < 3; i++ {
		a, b := anchors[i], anchors[i+1]
		if bytes >= a.b && bytes <= b.b {
			t := float64(bytes-a.b) / float64(b.b-a.b)
			return a.f + t*(b.f-a.f)
		}
	}
	return 1
}

// SignificantBytes returns the dynamic size of a value in sign-extended
// two's complement (1..8) — what the significance-compression hardware
// tags measure. The smallest k with v<<(64-8k)>>(64-8k) == v is the k
// whose 8k-1 magnitude bits cover the value, computed branch-light from
// the bit length (this sits on the per-access hot path of the hardware
// gating modes).
func SignificantBytes(v int64) int {
	u := uint64(v)
	if v < 0 {
		u = ^u
	}
	k := bits.Len64(u)/8 + 1
	if k > 8 {
		return 8
	}
	return k
}

// sizeClassOf quantises a significant-byte count to the 2-bit size-class
// encoding {1, 2, 5, 8} chosen in §4.6 from the SpecInt size distribution
// (the 5-byte class exists because memory addresses are 33–40 bits).
func sizeClassOf(s int) int {
	switch {
	case s <= 1:
		return 1
	case s <= 2:
		return 2
	case s <= 5:
		return 5
	default:
		return 8
	}
}

// activeBytesSig is the gated byte count of an access under mode moving a
// value of sig significant bytes through an opcode of swWidth bytes (8
// when the instruction carries no width). No mode looks at a value beyond
// its significant-byte count, which is what lets Bank tabulate every
// access by (structure, software width, sig).
func activeBytesSig(mode GatingMode, swWidth, sig int) int {
	switch mode {
	case GateNone:
		return 8
	case GateSoftware:
		return swWidth
	case GateHWSignificance:
		return sig
	case GateHWSize:
		return sizeClassOf(sig)
	case GateCooperative:
		// The hardware tag can only express {1,2,5,8}; the software
		// width further bounds the moved bytes.
		return min(swWidth, sizeClassOf(sig))
	case GateCooperativeSig:
		return min(swWidth, sig)
	}
	return 8
}
