package power

import (
	"math"
	"testing"
	"testing/quick"
)

// TestTable1MatchesPaper: the regenerated Table 1 must reproduce the
// paper's integer pattern exactly (savings 64→{32,16,8} = 1, 3, 6 and so
// on).
func TestTable1MatchesPaper(t *testing.T) {
	tab := ALUSavingsTable(DefaultParams())
	// Row/col order: 64, 32, 16, 8.
	want := [4][4]float64{
		{0, 1, 3, 6},
		{-1, 0, 2, 5},
		{-3, -2, 0, 3},
		{-6, -5, -3, 0},
	}
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if math.Abs(tab[i][j]-want[i][j]) > 1e-9 {
				t.Errorf("Table1[%d][%d] = %v, want %v", i, j, tab[i][j], want[i][j])
			}
		}
	}
}

func TestWidthProfileMonotone(t *testing.T) {
	prev := -1.0
	for b := 1; b <= 8; b++ {
		p := WidthProfile(b)
		if p < prev {
			t.Errorf("profile not monotone at %d bytes: %v < %v", b, p, prev)
		}
		if p < 0 || p > 1 {
			t.Errorf("profile(%d) = %v out of range", b, p)
		}
		prev = p
	}
	if WidthProfile(1) != 0 || WidthProfile(8) != 1 {
		t.Error("profile endpoints wrong")
	}
	// Anchor points from Table 1: 2 bytes = 1/2, 4 bytes = 5/6.
	if WidthProfile(2) != 0.5 {
		t.Errorf("profile(2) = %v", WidthProfile(2))
	}
	if math.Abs(WidthProfile(4)-5.0/6.0) > 1e-12 {
		t.Errorf("profile(4) = %v", WidthProfile(4))
	}
}

func TestSizeClass(t *testing.T) {
	cases := map[int64]int{
		0: 1, 100: 1, -100: 1,
		200: 2, 30000: 2,
		1 << 20: 5, 1 << 32: 5, 1 << 38: 5,
		1 << 40: 8, math.MaxInt64: 8,
	}
	for v, want := range cases {
		if got := SizeClass(v); got != want {
			t.Errorf("SizeClass(%d) = %d, want %d", v, got, want)
		}
	}
}

// TestSizeClassCoversSignificance: the 2-bit class always covers the
// exact significance (quantisation only rounds up).
func TestSizeClassCoversSignificance(t *testing.T) {
	f := func(v int64) bool { return SizeClass(v) >= SignificantBytes(v) }
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestActiveBytes(t *testing.T) {
	v := int64(300) // 2 significant bytes
	if got := ActiveBytes(GateNone, 1, v); got != 8 {
		t.Errorf("none: %d", got)
	}
	if got := ActiveBytes(GateSoftware, 4, v); got != 4 {
		t.Errorf("software: %d", got)
	}
	if got := ActiveBytes(GateHWSignificance, 8, v); got != 2 {
		t.Errorf("significance: %d", got)
	}
	if got := ActiveBytes(GateHWSize, 8, 1<<33); got != 5 {
		t.Errorf("size class: %d", got)
	}
	// Cooperative takes the min of software width and hardware tag.
	if got := ActiveBytes(GateCooperative, 1, v); got != 1 {
		t.Errorf("cooperative sw-narrow: %d", got)
	}
	if got := ActiveBytes(GateCooperativeSig, 8, v); got != 2 {
		t.Errorf("cooperative hw-narrow: %d", got)
	}
}

func TestMeterAccounting(t *testing.T) {
	params := DefaultParams()
	m := NewMeter(params, GateSoftware)
	m.AccessValue(FU, 8, 0)
	full := m.Energy[FU]
	m2 := NewMeter(params, GateSoftware)
	m2.AccessValue(FU, 1, 0)
	narrow := m2.Energy[FU]
	if narrow >= full {
		t.Errorf("narrow access (%v) not cheaper than full (%v)", narrow, full)
	}
	if full-narrow != params.Gated[FU] {
		t.Errorf("delta = %v, want the full gated component %v", full-narrow, params.Gated[FU])
	}
	// Baseline mode ignores the software width.
	m3 := NewMeter(params, GateNone)
	m3.AccessValue(FU, 1, 0)
	if m3.Energy[FU] != full {
		t.Error("GateNone must charge full width")
	}
}

func TestTagOverheadCharged(t *testing.T) {
	params := DefaultParams()
	sw := NewMeter(params, GateSoftware)
	hw := NewMeter(params, GateHWSignificance)
	// Same one-byte value: hardware pays the tag.
	sw.AccessValue(FU, 1, 1)
	hw.AccessValue(FU, 8, 1)
	if hw.Energy[FU] <= sw.Energy[FU] {
		t.Error("significance tags must cost something over pure software gating")
	}
}

func TestSavingsAndED2(t *testing.T) {
	params := DefaultParams()
	base := NewMeter(params, GateNone)
	gated := NewMeter(params, GateSoftware)
	for i := 0; i < 100; i++ {
		base.AccessValue(FU, 8, 0)
		gated.AccessValue(FU, 1, 0)
	}
	per, total := Savings(base, gated)
	if per[FU] <= 0 || total <= 0 {
		t.Errorf("expected positive savings, got %v / %v", per[FU], total)
	}
	// Same energy, fewer cycles: positive ED² saving from delay alone.
	if v := EnergyDelay2Saving(100, 100, 100, 90); v <= 0 {
		t.Errorf("delay improvement gives ED2 %v", v)
	}
	// Energy halved, delay doubled: ED² worsens (0.5 * 4 = 2x).
	if v := EnergyDelay2Saving(100, 100, 50, 200); v >= 0 {
		t.Errorf("ED2 should be negative, got %v", v)
	}
}

func TestOpEnergyMonotone(t *testing.T) {
	params := DefaultParams()
	prev := 0.0
	for b := 1; b <= 8; b++ {
		e := OpEnergy(params, b)
		if e < prev {
			t.Errorf("OpEnergy not monotone at %d bytes", b)
		}
		prev = e
	}
	if OpSavingsDelta(params, 8, 1) <= 0 {
		t.Error("narrowing must save energy")
	}
}

func TestTickChargesIdle(t *testing.T) {
	params := DefaultParams()
	m := NewMeter(params, GateNone)
	m.Tick(1000)
	if m.Cycles != 1000 {
		t.Errorf("cycles = %d", m.Cycles)
	}
	if m.Total() <= 0 {
		t.Error("idle energy not charged")
	}
}
