package uarch_test

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"opgate/internal/asm"
	"opgate/internal/emu"
	"opgate/internal/isa"
	"opgate/internal/power"
	"opgate/internal/prog"
	"opgate/internal/uarch"
	"opgate/internal/vrp"
	"opgate/internal/workload"
)

func buildLoop(t *testing.T, body string, n int) *prog.Program {
	t.Helper()
	src := `
.func main
	lda r1, 0(rz)
loop:
` + body + `
	add r1, r1, #1
	cmplt r9, r1, #` + itoa(n) + `
	bne r9, loop
	halt
`
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var b []byte
	for v > 0 {
		b = append([]byte{byte('0' + v%10)}, b...)
		v /= 10
	}
	return string(b)
}

func simulate(t *testing.T, p *prog.Program, mode power.GatingMode) *uarch.Result {
	t.Helper()
	r, err := uarch.Run(p, uarch.DefaultConfig(), power.DefaultParams(), mode)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestIPCBounds(t *testing.T) {
	p := buildLoop(t, "\tadd r2, r2, #1\n\tadd r3, r3, #1\n", 5000)
	r := simulate(t, p, power.GateNone)
	if r.IPC <= 0.3 || r.IPC > 4.0 {
		t.Errorf("IPC %.2f outside sane bounds for a 4-wide machine", r.IPC)
	}
	if r.Instructions < 5000 {
		t.Errorf("retired only %d instructions", r.Instructions)
	}
}

// TestSerialDependencyLimitsIPC: a pointer-chase-style serial chain cannot
// exceed 1 op per cycle through the dependent chain.
func TestSerialDependencyLimitsIPC(t *testing.T) {
	serial := buildLoop(t, "\tadd r2, r2, #1\n\tadd r2, r2, #1\n\tadd r2, r2, #1\n\tadd r2, r2, #1\n", 3000)
	parallel := buildLoop(t, "\tadd r2, r2, #1\n\tadd r3, r3, #1\n\tadd r4, r4, #1\n\tadd r5, r5, #1\n", 3000)
	rs := simulate(t, serial, power.GateNone)
	rp := simulate(t, parallel, power.GateNone)
	if rs.IPC >= rp.IPC {
		t.Errorf("serial IPC %.2f not below parallel IPC %.2f", rs.IPC, rp.IPC)
	}
}

// TestMulLatencyVisible: multiply-heavy chains run slower than add chains.
func TestMulLatencyVisible(t *testing.T) {
	adds := buildLoop(t, "\tadd r2, r2, #3\n", 3000)
	muls := buildLoop(t, "\tmul r2, r2, #3\n\tand r2, r2, #4095\n", 3000)
	ra := simulate(t, adds, power.GateNone)
	rm := simulate(t, muls, power.GateNone)
	cyclesPerIterAdd := float64(ra.Cycles) / 3000
	cyclesPerIterMul := float64(rm.Cycles) / 3000
	if cyclesPerIterMul <= cyclesPerIterAdd {
		t.Errorf("mul loop %.2f cyc/iter not slower than add loop %.2f", cyclesPerIterMul, cyclesPerIterAdd)
	}
}

// TestGatingModesEnergyOrdering: for the same program, baseline energy >=
// software gating; hardware gating on narrow data beats baseline too.
func TestGatingModesEnergyOrdering(t *testing.T) {
	w, err := workload.ByName("compress")
	if err != nil {
		t.Fatal(err)
	}
	p, err := w.Build(workload.Train)
	if err != nil {
		t.Fatal(err)
	}
	base := simulate(t, p, power.GateNone)
	hwSig := simulate(t, p, power.GateHWSignificance)
	hwSize := simulate(t, p, power.GateHWSize)
	if hwSig.Energy.Total() >= base.Energy.Total() {
		t.Error("significance gating did not save energy")
	}
	if hwSize.Energy.Total() >= base.Energy.Total() {
		t.Error("size gating did not save energy")
	}
	// Cycles are identical across gating modes (gating is energy-only).
	if base.Cycles != hwSig.Cycles || base.Cycles != hwSize.Cycles {
		t.Error("gating mode changed timing")
	}
}

// TestDeterminism: identical runs produce identical results.
func TestDeterminism(t *testing.T) {
	w, _ := workload.ByName("perl")
	p, _ := w.Build(workload.Train)
	r1 := simulate(t, p, power.GateSoftware)
	r2 := simulate(t, p, power.GateSoftware)
	if r1.Cycles != r2.Cycles || r1.Energy.Total() != r2.Energy.Total() {
		t.Error("simulation is not deterministic")
	}
}

// TestBranchyCodeSlower: a data-dependent branchy loop has a worse IPC
// than straight-line code of the same length (mispredict bubbles).
func TestBranchyCodeSlower(t *testing.T) {
	w, _ := workload.ByName("compress") // data-dependent scan loop
	p, _ := w.Build(workload.Train)
	r := simulate(t, p, power.GateNone)
	if r.BranchMissRate <= 0 {
		t.Error("compress has data-dependent branches; miss rate must be positive")
	}
	if r.BranchMissRate > 0.5 {
		t.Errorf("miss rate %.2f implausibly high", r.BranchMissRate)
	}
}

// TestCacheMissesVisible: a large-stride scan takes more cycles per access
// than a dense scan.
func TestCacheMissesVisible(t *testing.T) {
	dense, err := asm.Assemble(`
.data
buf: .space 262144
.text
.func main
	lda r1, =buf
	lda r2, 0(rz)
loop:
	ld.q r3, 0(r1)
	lda r1, 8(r1)
	add r2, r2, #1
	cmplt r4, r2, #4000
	bne r4, loop
	halt
`)
	if err != nil {
		t.Fatal(err)
	}
	sparse, err := asm.Assemble(`
.data
buf: .space 2097152
.text
.func main
	lda r1, =buf
	lda r2, 0(rz)
loop:
	ld.q r3, 0(r1)
	lda r1, 512(r1)
	add r2, r2, #1
	cmplt r4, r2, #4000
	bne r4, loop
	halt
`)
	if err != nil {
		t.Fatal(err)
	}
	rd := simulate(t, dense, power.GateNone)
	rs := simulate(t, sparse, power.GateNone)
	if rs.Cycles <= rd.Cycles {
		t.Errorf("sparse scan (%d cycles) not slower than dense (%d)", rs.Cycles, rd.Cycles)
	}
	if rs.L1DMissRate <= rd.L1DMissRate {
		t.Errorf("sparse miss rate %.3f not above dense %.3f", rs.L1DMissRate, rd.L1DMissRate)
	}
}

// TestWindowStall: an instruction window of 8 is slower than 64 on
// memory-latency-bound code.
func TestWindowStall(t *testing.T) {
	p, err := asm.Assemble(`
.data
buf: .space 2097152
.text
.func main
	lda r1, =buf
	lda r2, 0(rz)
loop:
	ld.q r3, 0(r1)
	add r4, r4, r3
	lda r1, 512(r1)
	add r2, r2, #1
	cmplt r5, r2, #3000
	bne r5, loop
	halt
`)
	if err != nil {
		t.Fatal(err)
	}
	big := uarch.DefaultConfig()
	small := uarch.DefaultConfig()
	small.WindowSize = 8
	rb, err := uarch.Run(p, big, power.DefaultParams(), power.GateNone)
	if err != nil {
		t.Fatal(err)
	}
	rsm, err := uarch.Run(p, small, power.DefaultParams(), power.GateNone)
	if err != nil {
		t.Fatal(err)
	}
	if rsm.Cycles <= rb.Cycles {
		t.Errorf("8-entry window (%d cycles) not slower than 64-entry (%d)", rsm.Cycles, rb.Cycles)
	}
}

// TestSignExtendToCacheCostsEnergy measures §2.4's claim: carrying size
// tags in the cache (approach 1, the model's) saves more energy than
// sign-extending values to full width before they enter it (approach 2).
// Approach 2 is an oracle here: every data-cache access of the tagged
// run moves a full-width (8-byte) value, over the same cycles of idle.
func TestSignExtendToCacheCostsEnergy(t *testing.T) {
	w, _ := workload.ByName("compress")
	p, _ := w.Build(workload.Train)
	params := power.DefaultParams()
	tagged, err := uarch.Run(p, uarch.DefaultConfig(), params, power.GateHWSignificance)
	if err != nil {
		t.Fatal(err)
	}
	bank, err := power.NewBank(params, []power.GatingMode{power.GateHWSignificance})
	if err != nil {
		t.Fatal(err)
	}
	// One 8-byte memory retirement per data-cache access of the tagged
	// run: its data-cache access moves a value with all 8 bytes
	// significant at software width 8.
	sextLoad := power.Shape{Width: 8, Mem: true}
	for range tagged.Energy.Accesses[power.DCache] {
		bank.Charge(0, sextLoad, 0, math.MaxInt64, 0, 0)
	}
	sext := bank.Meters()[0]
	sext.Tick(tagged.Cycles)
	if tagged.Energy.Energy[power.DCache] >= sext.Energy[power.DCache] {
		t.Errorf("tagged cache (%.0f) not cheaper than sign-extended cache (%.0f)",
			tagged.Energy.Energy[power.DCache], sext.Energy[power.DCache])
	}
}

// TestSimMatchesEmulatorCounts: the trace-driven model retires exactly the
// instruction stream the functional emulator produces.
func TestSimMatchesEmulatorCounts(t *testing.T) {
	for _, name := range []string{"compress", "li", "vortex"} {
		w, _ := workload.ByName(name)
		p, _ := w.Build(workload.Train)
		r := simulate(t, p, power.GateNone)
		m, err := uarch.Run(p, uarch.DefaultConfig(), power.DefaultParams(), power.GateSoftware)
		if err != nil {
			t.Fatal(err)
		}
		if r.Instructions != m.Instructions {
			t.Errorf("%s: instruction counts differ across modes: %d vs %d",
				name, r.Instructions, m.Instructions)
		}
		if r.IPC <= 0 {
			t.Errorf("%s: IPC %v", name, r.IPC)
		}
	}
}

// TestRunModesMatchesIndependentRuns: the fused multi-mode pass must be
// indistinguishable — cycles, instruction counts, miss rates, and every
// field of every meter, bit for bit — from one independent Run per mode.
func TestRunModesMatchesIndependentRuns(t *testing.T) {
	w, err := workload.ByName("compress")
	if err != nil {
		t.Fatal(err)
	}
	p, err := w.Build(workload.Train)
	if err != nil {
		t.Fatal(err)
	}
	cfg := uarch.DefaultConfig()
	params := power.DefaultParams()
	modes := power.Modes()

	fused, err := uarch.RunModes(p, cfg, params, modes)
	if err != nil {
		t.Fatal(err)
	}
	if len(fused) != len(modes) {
		t.Fatalf("RunModes returned %d results for %d modes", len(fused), len(modes))
	}
	for i, mode := range modes {
		solo, err := uarch.Run(p, cfg, params, mode)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(fused[i], solo) {
			t.Errorf("mode %v: fused result differs from independent run\nfused: %+v\n solo: %+v",
				mode, fused[i], solo)
		}
	}
}

// TestReplayModesMatchesRunModes: driving the fused timing core from a
// captured trace must give the identical results as a live emulation, on
// every workload.
func TestReplayModesMatchesRunModes(t *testing.T) {
	cfg := uarch.DefaultConfig()
	params := power.DefaultParams()
	modes := power.Modes()
	for _, w := range workload.All() {
		p, err := w.Build(workload.Train)
		if err != nil {
			t.Fatal(err)
		}
		rec := emu.NewTraceRecorder(p)
		m := emu.New(p)
		m.Sink = rec
		if err := m.Run(); err != nil {
			t.Fatal(err)
		}
		tr, err := rec.Trace()
		if err != nil {
			t.Fatal(err)
		}
		replayed, err := uarch.ReplayModes(tr, cfg, params, modes)
		if err != nil {
			t.Fatal(err)
		}
		live, err := uarch.RunModes(p, cfg, params, modes)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(replayed, live) {
			t.Errorf("%s: trace-replayed results differ from live emulation", w.Name)
		}
	}
}

// TestOverlaysMatchRewriteRuns: a software overlay carrying a width-only
// rewrite's widths, fed the base program's records, equals a live
// GateSoftware run of the rewrite in every field, and leaves the
// requested modes' results as they are without it, on every workload.
func TestOverlaysMatchRewriteRuns(t *testing.T) {
	cfg := uarch.DefaultConfig()
	params := power.DefaultParams()
	modes := power.Modes()
	for _, w := range workload.All() {
		p, err := w.Build(workload.Train)
		if err != nil {
			t.Fatal(err)
		}
		var overlays [][]isa.Width
		var rewrites []*prog.Program
		for _, opcodes := range []*isa.OpcodeSet{isa.FullOpcodeSet(), isa.PaperOpcodeSet()} {
			r, err := vrp.Analyze(p, vrp.Options{Mode: vrp.Useful, Opcodes: opcodes})
			if err != nil {
				t.Fatal(err)
			}
			overlays = append(overlays, r.Width)
			rewrites = append(rewrites, r.Apply())
		}
		sim, err := uarch.NewMulti(p, cfg, params, modes, overlays...)
		if err != nil {
			t.Fatal(err)
		}
		m := emu.New(p)
		m.Sink = sim
		if err := m.Run(); err != nil {
			t.Fatal(err)
		}
		m.Release()
		got := sim.FinishAll()
		plain, err := uarch.RunModes(p, cfg, params, modes)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[:len(modes)], plain) {
			t.Errorf("%s: overlays changed the requested modes' results", w.Name)
		}
		for k, q := range rewrites {
			live, err := uarch.Run(q, cfg, params, power.GateSoftware)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got[len(modes)+k], live) {
				t.Errorf("%s: overlay %d differs from the rewrite's live run", w.Name, k)
			}
		}
	}
}

// TestRewriteMatchesRewriteRuns: the energy-only sink of a width-only
// rewrite, fed the rewrite's records and given its base program's
// ungated timing result, equals the rewrite's own fused timing pass in
// every field of every mode, on every workload, for both VRP modes.
func TestRewriteMatchesRewriteRuns(t *testing.T) {
	cfg := uarch.DefaultConfig()
	params := power.DefaultParams()
	modes := power.Modes()
	for _, w := range workload.All() {
		p, err := w.Build(workload.Train)
		if err != nil {
			t.Fatal(err)
		}
		base, err := uarch.Run(p, cfg, params, power.GateNone)
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []vrp.Mode{vrp.Useful, vrp.Conventional} {
			r, err := vrp.Analyze(p, vrp.Options{Mode: mode})
			if err != nil {
				t.Fatal(err)
			}
			q := r.Apply()
			sink, err := uarch.NewRewrite(q, params, modes, base)
			if err != nil {
				t.Fatal(err)
			}
			m := emu.New(q)
			m.Sink = sink
			if err := m.Run(); err != nil {
				t.Fatal(err)
			}
			m.Release()
			live, err := uarch.RunModes(q, cfg, params, modes)
			if err != nil {
				t.Fatal(err)
			}
			if got := sink.FinishAll(); !reflect.DeepEqual(got, live) {
				t.Errorf("%s %v rewrite: energy-only results differ from the rewrite's timing pass", w.Name, mode)
			}
		}
	}
}

// TestOverlayValidation: an overlay must name one width of at most 8
// bytes per instruction, and so must an energy-only sink's program; the
// sink needs at least one mode; and a simulator or sink holds at most
// power.MaxMeters meters, modes and overlays together.
func TestOverlayValidation(t *testing.T) {
	p := buildLoop(t, "\tmul r2, r2, #3\n", 10)
	cfg, params, modes := uarch.DefaultConfig(), power.DefaultParams(), []power.GatingMode{power.GateNone}
	short := make([]isa.Width, len(p.Ins)-1)
	if _, err := uarch.NewMulti(p, cfg, params, modes, short); err == nil || !strings.Contains(err.Error(), "widths") {
		t.Errorf("short overlay: error %v, want a width-count rejection", err)
	}
	wide := make([]isa.Width, len(p.Ins))
	for i := range wide {
		wide[i] = isa.W64
	}
	wide[1] = isa.Width(16)
	if _, err := uarch.NewMulti(p, cfg, params, modes, wide); err == nil || !strings.Contains(err.Error(), "operand width") {
		t.Errorf("16-byte overlay width: error %v, want a rejection", err)
	}
	base := simulate(t, p, power.GateNone)
	if _, err := uarch.NewRewrite(p, params, nil, base); err == nil {
		t.Error("energy-only sink of no modes: no error")
	}
	q := p.Clone()
	q.Ins[1].Width = isa.Width(16)
	if _, err := uarch.NewRewrite(q, params, modes, base); err == nil || !strings.Contains(err.Error(), "operand width") {
		t.Errorf("energy-only sink of a 16-byte width: error %v, want a rejection", err)
	}
	full := make([]isa.Width, len(p.Ins))
	for i := range full {
		full[i] = isa.W64
	}
	nine := append(power.Modes(), power.GateNone, power.GateSoftware, power.GateHWSize)
	if _, err := uarch.NewMulti(p, cfg, params, nine[:8]); err != nil {
		t.Errorf("8 modes: %v", err)
	}
	if _, err := uarch.NewMulti(p, cfg, params, power.Modes(), full, full); err != nil {
		t.Errorf("6 modes + 2 overlays: %v", err)
	}
	if _, err := uarch.NewMulti(p, cfg, params, nine); err == nil {
		t.Error("9 modes: no error")
	}
	if _, err := uarch.NewMulti(p, cfg, params, power.Modes(), full, full, full); err == nil {
		t.Error("6 modes + 3 overlays: no error")
	}
	if _, err := uarch.NewMulti(p, cfg, params, modes, full, full, full, full, full, full, full, full); err == nil {
		t.Error("1 mode + 8 overlays: no error")
	}
	if _, err := uarch.NewRewrite(p, params, nine[:8], base); err != nil {
		t.Errorf("energy-only sink of 8 modes: %v", err)
	}
	if _, err := uarch.NewRewrite(p, params, nine, base); err == nil {
		t.Error("energy-only sink of 9 modes: no error")
	}
}

// TestConfigValidation: configurations the core cannot simulate are
// rejected with an error instead of hanging or panicking mid-run.
func TestConfigValidation(t *testing.T) {
	p := buildLoop(t, "\tmul r2, r2, #3\n", 10)
	for _, tc := range []struct {
		name string
		edit func(*uarch.Config)
	}{
		{"FetchWidth", func(c *uarch.Config) { c.FetchWidth = 0 }},
		{"DecodeWidth", func(c *uarch.Config) { c.DecodeWidth = -1 }},
		{"IssueWidth", func(c *uarch.Config) { c.IssueWidth = 0 }},
		{"IssueWidth", func(c *uarch.Config) { c.IssueWidth = 1 << 10 }},
		{"RetireWidth", func(c *uarch.Config) { c.RetireWidth = 0 }},
		{"WindowSize", func(c *uarch.Config) { c.WindowSize = 0 }},
		{"IntALUs", func(c *uarch.Config) { c.IntALUs = 0 }},
		{"IntMulDiv", func(c *uarch.Config) { c.IntMulDiv = 0 }},
		{"InstrBytes", func(c *uarch.Config) { c.InstrBytes = -8 }},
		{"GshareEntries", func(c *uarch.Config) { c.Predictor.GshareEntries = 3 }},
		{"BimodalEntries", func(c *uarch.Config) { c.Predictor.BimodalEntries = 0 }},
		{"ChooserEntries", func(c *uarch.Config) { c.Predictor.ChooserEntries = -4 }},
		{"RASEntries", func(c *uarch.Config) { c.Predictor.RASEntries = 0 }},
		{"LineBytes", func(c *uarch.Config) { c.Memory.L1D.LineBytes = 48 }},
		{"SizeBytes", func(c *uarch.Config) { c.Memory.L2.SizeBytes = 3 << 16 }},
	} {
		cfg := uarch.DefaultConfig()
		tc.edit(&cfg)
		_, err := uarch.Run(p, cfg, power.DefaultParams(), power.GateNone)
		if err == nil || !strings.Contains(err.Error(), tc.name) {
			t.Errorf("%s: Run error = %v, want a rejection naming the field", tc.name, err)
		}
	}
	if _, err := uarch.Run(p, uarch.DefaultConfig(), power.DefaultParams(), power.GateNone); err != nil {
		t.Fatalf("default config rejected: %v", err)
	}
}
