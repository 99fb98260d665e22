package power

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sync"
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

// swappedParams ungates a normally gated structure (IQ) and gates a
// normally ungated one (L2), so structures accrued in lane 0 alone and in
// every lane both see fixed, address and operand accesses interleaved.
func swappedParams() Params {
	p := DefaultParams()
	p.Gated[IQ] = 0
	p.Gated[L2Cache] = 0.5
	return p
}

// TestBankTableMatchesMeter is the bank's exactness oracle: every entry
// of the shared rows must equal, bit for bit, what Meter.AccessValue adds
// to a fresh meter for the same access, over every mode, structure,
// software width 0-8 and significant-byte class; the software row is
// GateSoftware's, and the lanes past the requested modes hold +0.
func TestBankTableMatchesMeter(t *testing.T) {
	params := DefaultParams()
	modes := Modes()
	vals := sigValues()
	b, err := NewBank(params, modes)
	if err != nil {
		t.Fatal(err)
	}
	same := func(got, want float64) bool { return math.Float64bits(got) == math.Float64bits(want) }
	for s := Structure(0); s < NumStructures; s++ {
		for sw := 0; sw < bankWidths; sw++ {
			for _, v := range vals {
				j := sw*bankWidths + SignificantBytes(v)
				row := b.rows.value[s][j]
				for i, mode := range modes {
					m := NewMeter(params, mode)
					m.AccessValue(s, sw, v)
					if !same(row[i], m.Energy[s]) {
						t.Errorf("%v %v sw=%d v=%d: value entry %v, meter adds %v", mode, s, sw, v, row[i], m.Energy[s])
					}
				}
				for i := len(modes); i < MaxMeters; i++ {
					if !same(row[i], 0) {
						t.Errorf("%v sw=%d v=%d: unused lane %d holds %v", s, sw, v, i, row[i])
					}
				}
				m := NewMeter(params, GateSoftware)
				m.AccessValue(s, sw, v)
				if got := b.rows.soft[s][j]; !same(got, m.Energy[s]) {
					t.Errorf("%v sw=%d v=%d: software entry %v, meter adds %v", s, sw, v, got, m.Energy[s])
				}
			}
		}
	}
}

// bankOracle is a bank beside its solo meters: one Meter per requested
// mode, then one GateSoftware meter per overlay.
type bankOracle struct {
	bank     *Bank
	solo     []*Meter
	modes    int
	overlays [][]uint8
}

const bankStatics = 64 // static instructions of an oracle's program

func newBankOracle(rng *rand.Rand, params Params, modes []GatingMode, overlays int) (*bankOracle, error) {
	o := &bankOracle{modes: len(modes)}
	for range overlays {
		w := make([]uint8, bankStatics)
		for i := range w {
			w[i] = uint8(swWidths[rng.Intn(len(swWidths))])
		}
		o.overlays = append(o.overlays, w)
	}
	b, err := NewBank(params, modes, o.overlays...)
	if err != nil {
		return nil, err
	}
	o.bank = b
	for _, mode := range modes {
		o.solo = append(o.solo, NewMeter(params, mode))
	}
	for range overlays {
		o.solo = append(o.solo, NewMeter(params, GateSoftware))
	}
	return o, nil
}

// swWidths are the software operand widths an opcode can carry.
var swWidths = []int{0, 1, 2, 4, 8}

// shapes returns every retirement shape at software width sw: each
// combination of a memory access, a SrcA read, 0-2 SrcB reads, a register
// write and a functional-unit access.
func shapes(sw int) []Shape {
	var out []Shape
	for _, mem := range []bool{false, true} {
		for _, readsA := range []bool{false, true} {
			for readsB := range uint8(3) {
				for _, writes := range []bool{false, true} {
					for _, fu := range []bool{false, true} {
						out = append(out, Shape{Width: uint8(sw), ReadsB: readsB, Mem: mem, ReadsA: readsA, Writes: writes, FU: fu})
					}
				}
			}
		}
	}
	return out
}

// randValue returns a random value of a random significant-byte class.
func randValue(rng *rand.Rand, vals []int64) int64 {
	return vals[rng.Intn(len(vals))] >> rng.Intn(64)
}

// charge charges one retirement of static instruction idx and shape sh
// with random values to the bank, and to each solo meter through the
// per-access oracle (Meter.charge): a requested mode's meter at sh's
// width, an overlay's at the overlay's own width for idx.
func (o *bankOracle) charge(rng *rand.Rand, idx int32, sh Shape) {
	vals := sigValues()
	addr, value := randValue(rng, vals), randValue(rng, vals)
	srcA, srcB := randValue(rng, vals), randValue(rng, vals)
	o.bank.Charge(idx, sh, addr, value, srcA, srcB)
	for i, m := range o.solo {
		w := int(sh.Width)
		if i >= o.modes {
			w = int(o.overlays[i-o.modes][idx])
		}
		m.charge(sh, w, addr, value, srcA, srcB)
	}
}

// feed drives the bank and the solo meters through n random retirements:
// a random shape at a random static index and software width, each
// preceded by up to 3 fixed accesses to random structures.
func (o *bankOracle) feed(rng *rand.Rand, n int) {
	for range n {
		for range rng.Intn(4) {
			s := Structure(rng.Intn(int(NumStructures)))
			o.bank.AccessFixed(s)
			for _, m := range o.solo {
				m.AccessFixed(s)
			}
		}
		all := shapes(swWidths[rng.Intn(len(swWidths))])
		o.charge(rng, int32(rng.Intn(bankStatics)), all[rng.Intn(len(all))])
	}
}

// check reports every meter of the bank that differs from its solo meter.
func (o *bankOracle) check(t *testing.T, what string) {
	t.Helper()
	got := o.bank.Meters()
	if len(got) != len(o.solo) {
		t.Fatalf("%s: %d meters, want %d", what, len(got), len(o.solo))
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], o.solo[i]) {
			t.Errorf("%s: meter %d (%v) differs from its solo meter", what, i, o.solo[i].Mode)
		}
	}
}

// TestBankMatchesMeters: a random retirement stream accrued by one bank
// leaves every meter exactly as feeding a Meter per mode and per overlay
// the same accesses one by one. The requested modes run over lists of
// every length 1-6 (a prefix and a suffix of Modes), lists repeating a
// mode (among them one that differs from a shorter list only in length)
// and lists of 7 and 8 modes that fill every lane, each with 0, 1 and 2
// overlays up to MaxMeters, plus one mode with 7 overlays, under the
// default and the swapped parameter sets.
func TestBankMatchesMeters(t *testing.T) {
	all := Modes()
	lists := [][]GatingMode{
		{GateCooperative, GateNone, GateCooperative, GateHWSize},
		{GateNone, GateNone},
		append(slices.Clone(all), GateSoftware),
		append(slices.Clone(all), GateCooperativeSig, GateNone),
	}
	for n := 1; n < len(all); n++ {
		lists = append(lists, all[:n], all[len(all)-n:])
	}
	lists = append(lists, all)
	type shape struct {
		modes    []GatingMode
		overlays int
	}
	shapes := []shape{{[]GatingMode{GateNone}, 7}}
	for _, modes := range lists {
		for k := 0; k <= 2 && len(modes)+k <= MaxMeters; k++ {
			shapes = append(shapes, shape{modes, k})
		}
	}
	rng := rand.New(rand.NewSource(1))
	for pi, params := range []Params{DefaultParams(), swappedParams()} {
		for _, sh := range shapes {
			o, err := newBankOracle(rng, params, sh.modes, sh.overlays)
			if err != nil {
				t.Fatal(err)
			}
			o.feed(rng, 1500)
			o.check(t, fmt.Sprintf("params %d, modes %v + %d overlays", pi, sh.modes, sh.overlays))
		}
	}
}

// TestBankChargeMatchesMeters is the per-retirement oracle: every
// retirement shape (memory access or not, SrcA read or not, 0-2 SrcB
// reads, register write or not, functional unit or not) at every software
// width, with random values and static indices, leaves every meter of
// the bank, after every retirement, exactly as the per-access oracle
// leaves its solo meter. Overlays draw random widths per static index, so
// an overlay charged at the requested width, an address charged at the
// instruction's width, a SrcB read charged once or a functional unit
// charged by the result's width all show.
func TestBankChargeMatchesMeters(t *testing.T) {
	all := Modes()
	rng := rand.New(rand.NewSource(3))
	for pi, params := range []Params{DefaultParams(), swappedParams()} {
		for _, sh := range []struct {
			modes    []GatingMode
			overlays int
		}{
			{all, 2},
			{[]GatingMode{GateNone}, 7},
			{append(slices.Clone(all), GateCooperativeSig, GateSoftware), 0},
			{nil, 1},
		} {
			o, err := newBankOracle(rng, params, sh.modes, sh.overlays)
			if err != nil {
				t.Fatal(err)
			}
			for _, sw := range swWidths {
				for _, shape := range shapes(sw) {
					for range 4 {
						o.charge(rng, int32(rng.Intn(bankStatics)), shape)
						o.check(t, fmt.Sprintf("params %d, modes %v + %d overlays, %+v", pi, sh.modes, sh.overlays, shape))
						if t.Failed() {
							return
						}
					}
				}
			}
		}
	}
}

// TestBankOverlaysMatchSoftwareMeters: an overlay fed a program's
// accesses accrues exactly what a GateSoftware meter accrues fed the same
// accesses at the overlay's own operand width, and the requested meters
// are untouched by it — also on a bank of overlays alone, up to the full
// eight lanes, over both parameter sets.
func TestBankOverlaysMatchSoftwareMeters(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, shape := range []struct {
		modes    []GatingMode
		overlays int
	}{
		{[]GatingMode{GateNone, GateSoftware, GateCooperative}, 2},
		{nil, 1},
		{nil, 2},
		{nil, MaxMeters},
	} {
		for pi, params := range []Params{DefaultParams(), swappedParams()} {
			o, err := newBankOracle(rng, params, shape.modes, shape.overlays)
			if err != nil {
				t.Fatal(err)
			}
			o.feed(rng, 5000)
			o.check(t, fmt.Sprintf("params %d, modes %v + %d overlays", pi, shape.modes, shape.overlays))
		}
	}
}

// TestBankMeterLimit: a bank holds 1 to MaxMeters meters, requested
// modes and overlays together.
func TestBankMeterLimit(t *testing.T) {
	params := DefaultParams()
	w := make([]uint8, bankStatics)
	over := func(n int) [][]uint8 {
		o := make([][]uint8, n)
		for i := range o {
			o[i] = w
		}
		return o
	}
	nine := append(Modes(), GateNone, GateSoftware, GateHWSize)
	for _, tc := range []struct {
		modes    []GatingMode
		overlays int
		ok       bool
	}{
		{Modes(), 2, true},
		{[]GatingMode{GateNone}, 7, true},
		{nine[:8], 0, true},
		{nil, 8, true},
		{nine, 0, false},
		{Modes(), 3, false},
		{[]GatingMode{GateNone}, 8, false},
		{nil, 9, false},
		{nil, 0, false},
	} {
		_, err := NewBank(params, tc.modes, over(tc.overlays)...)
		if (err == nil) != tc.ok {
			t.Errorf("%d modes + %d overlays: error %v, want ok=%v", len(tc.modes), tc.overlays, err, tc.ok)
		}
	}
}

// TestBanksShareTablesConcurrently: banks built at once over a parameter
// set no other test uses share one set of rows, and each, fed its own
// random stream on its own goroutine, matches its solo meters (run under
// -race to check the rows are only read).
func TestBanksShareTablesConcurrently(t *testing.T) {
	params := DefaultParams()
	params.Fixed[ROB] += 0.125
	params.Gated[LSQ] += 0.25
	modes := []GatingMode{GateNone, GateHWSize, GateHWSignificance, GateCooperativeSig}
	const banks = 16
	oracles := make([]*bankOracle, banks)
	var wg sync.WaitGroup
	for g := range banks {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + g)))
			o, err := newBankOracle(rng, params, modes, g%3)
			if err != nil {
				t.Error(err)
				return
			}
			o.feed(rng, 2000)
			oracles[g] = o
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for g, o := range oracles {
		o.check(t, fmt.Sprintf("bank %d", g))
		if o.bank.rows != oracles[0].bank.rows {
			t.Errorf("bank %d: rows not shared with bank 0", g)
		}
	}
}
