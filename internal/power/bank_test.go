package power

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// sigValues returns one value per SignificantBytes class, plus zero and a
// negative value per class.
func sigValues() []int64 {
	vals := []int64{0, -1}
	for k := 1; k <= 8; k++ {
		top := int64(1)<<(8*k-1) - 1 // largest k-byte value
		if k == 8 {
			top = math.MaxInt64
		}
		vals = append(vals, top, -top-1)
	}
	return vals
}

// TestBankTableMatchesMeter is the bank's exactness oracle: every
// precomputed entry must equal, bit for bit, what Meter.AccessValue adds
// to a fresh meter for the same access, over every mode, structure,
// software width 0-8 and significant-byte class.
func TestBankTableMatchesMeter(t *testing.T) {
	params := DefaultParams()
	modes := Modes()
	vals := sigValues()
	b := NewBank(params, modes)
	for i, mode := range modes {
		for s := Structure(0); s < NumStructures; s++ {
			for sw := 0; sw < bankWidths; sw++ {
				for _, v := range vals {
					sig := SignificantBytes(v)
					m := NewMeter(params, mode)
					m.AccessValue(s, sw, v)
					if got, want := b.tabs[i].value[s][sw][sig], m.Energy[s]; math.Float64bits(got) != math.Float64bits(want) {
						t.Errorf("%v %v sw=%d v=%d: value entry %v, meter adds %v", mode, s, sw, v, got, want)
					}
				}
			}
		}
	}
}

// TestBankMatchesMeters: a random access sequence accrued by one bank
// leaves every meter exactly as feeding a Meter per mode the same calls.
// The second parameter set ungates a normally gated structure (IQ) and
// gates a normally ungated one (L2), so structures accrued by the first
// meter alone and by every meter both see fixed, address and operand
// accesses interleaved.
func TestBankMatchesMeters(t *testing.T) {
	swapped := DefaultParams()
	swapped.Gated[IQ] = 0
	swapped.Gated[L2Cache] = 0.5
	modes := Modes()
	vals := sigValues()
	rng := rand.New(rand.NewSource(1))
	for pi, params := range []Params{DefaultParams(), swapped} {
		b := NewBank(params, modes)
		solo := make([]*Meter, len(modes))
		for i, mode := range modes {
			solo[i] = NewMeter(params, mode)
		}
		for range 20000 {
			s := Structure(rng.Intn(int(NumStructures)))
			sw := []int{0, 1, 2, 4, 8}[rng.Intn(5)]
			v := vals[rng.Intn(len(vals))] >> rng.Intn(64)
			switch rng.Intn(3) {
			case 0:
				b.AccessFixed(s)
				for _, m := range solo {
					m.AccessFixed(s)
				}
			case 1:
				b.AccessValue(s, sw, v)
				for _, m := range solo {
					m.AccessValue(s, sw, v)
				}
			case 2:
				b.AccessSig(s, sw, SignificantBytes(v))
				for _, m := range solo {
					m.AccessValue(s, sw, v)
				}
			}
		}
		if got := b.Meters(); !reflect.DeepEqual(got, solo) {
			t.Errorf("params %d: bank meters differ from per-mode meters", pi)
		}
	}
}

// TestBankOverlaysMatchSoftwareMeters: an overlay fed a program's
// accesses accrues exactly what a GateSoftware meter accrues fed the same
// accesses at the overlay's own operand width, and the requested meters
// are untouched by it. Each random instruction interleaves fixed,
// explicit-width and operand accesses in any order, over both parameter
// sets of TestBankMatchesMeters and a bank of overlays alone.
func TestBankOverlaysMatchSoftwareMeters(t *testing.T) {
	swapped := DefaultParams()
	swapped.Gated[IQ] = 0
	swapped.Gated[L2Cache] = 0.5
	vals := sigValues()
	rng := rand.New(rand.NewSource(2))
	const statics = 64
	widths := func() []uint8 {
		w := make([]uint8, statics)
		for i := range w {
			w[i] = uint8([]int{0, 1, 2, 4, 8}[rng.Intn(5)])
		}
		return w
	}
	for _, modes := range [][]GatingMode{{GateNone, GateSoftware, GateCooperative}, nil} {
		for pi, params := range []Params{DefaultParams(), swapped} {
			overlays := [][]uint8{widths(), widths()}
			b := NewBank(params, modes, overlays...)
			solo := make([]*Meter, len(modes)+len(overlays))
			for i := range solo {
				mode := GateSoftware
				if i < len(modes) {
					mode = modes[i]
				}
				solo[i] = NewMeter(params, mode)
			}
			for range 5000 {
				idx := int32(rng.Intn(statics))
				sw := []int{0, 1, 2, 4, 8}[rng.Intn(5)]
				b.Begin(idx)
				for range rng.Intn(8) {
					s := Structure(rng.Intn(int(NumStructures)))
					v := vals[rng.Intn(len(vals))] >> rng.Intn(64)
					kind := rng.Intn(3)
					switch kind {
					case 0:
						b.AccessFixed(s)
					case 1:
						b.AccessValue(s, 8, v)
					case 2:
						b.AccessSig(s, sw, SignificantBytes(v))
					}
					for i, m := range solo {
						w := sw
						if i >= len(modes) {
							w = int(overlays[i-len(modes)][idx])
						}
						switch kind {
						case 0:
							m.AccessFixed(s)
						case 1:
							m.AccessValue(s, 8, v)
						case 2:
							m.AccessValue(s, w, v)
						}
					}
				}
			}
			got := b.Meters()
			for i := range got {
				if !reflect.DeepEqual(got[i], solo[i]) {
					t.Errorf("%d modes, params %d: meter %d (%v) differs from its solo meter", len(modes), pi, i, solo[i].Mode)
				}
			}
		}
	}
}
