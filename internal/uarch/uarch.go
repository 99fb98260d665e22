// Package uarch is the trace-driven out-of-order processor model of
// Table 2. The functional emulator (internal/emu) supplies the retired
// instruction stream as packed records, live or from a captured trace;
// this model replays it through fetch, rename,
// a 64-entry instruction window, functional units, a load/store queue and
// the cache hierarchy, producing a cycle count and per-structure energy via
// the operand-gated power model (internal/power).
//
// This is the classic sim-outorder decomposition: timing is modelled on
// the architecturally correct path, with branch mispredictions charged as
// fetch redirect bubbles plus wrong-path activity energy.
//
// A width-only rewrite (vrp.Result.Apply) retires its base binary's path
// with the base's opcodes, so the core's output for it is, bit for bit,
// the base binary's: the timing, and every structure the core reaches
// only through fixed-cost accesses. Its pass is therefore not a timing
// pass: an energy-only sink (NewRewrite) takes those from the base
// binary's Result and charges the rewrite's own records only the
// value-driven accesses, through the same bank call the core makes
// (power.Bank.Charge).
package uarch

import (
	"fmt"
	"math"

	"opgate/internal/bpred"
	"opgate/internal/cache"
	"opgate/internal/emu"
	"opgate/internal/isa"
	"opgate/internal/power"
	"opgate/internal/prog"
)

// Config mirrors Table 2.
type Config struct {
	FetchWidth      int
	DecodeWidth     int
	IssueWidth      int
	RetireWidth     int
	WindowSize      int // max in-flight instructions
	PhysRegs        int
	IntALUs         int
	IntMulDiv       int
	FrontendDepth   int // fetch→dispatch stages
	RedirectPenalty int
	// InstrBytes is the size of one instruction in the I-cache (OG64
	// encodes to 8 bytes).
	InstrBytes int
	// WrongPathFactor scales the wasted front-end activity charged per
	// mispredict (fraction of a full fetch-to-dispatch refill).
	WrongPathFactor float64

	Predictor bpred.Config
	Memory    cache.HierarchyConfig
}

// DefaultConfig returns the paper's machine parameters.
func DefaultConfig() Config {
	return Config{
		FetchWidth:      4,
		DecodeWidth:     4,
		IssueWidth:      4,
		RetireWidth:     4,
		WindowSize:      64,
		PhysRegs:        96,
		IntALUs:         3,
		IntMulDiv:       1,
		FrontendDepth:   4,
		RedirectPenalty: 2,
		InstrBytes:      8,
		WrongPathFactor: 0.5,
		Predictor:       bpred.DefaultConfig(),
		Memory:          cache.DefaultHierarchyConfig(),
	}
}

// Result summarises one simulation.
type Result struct {
	Cycles         int64
	Instructions   int64
	Energy         *power.Meter
	BranchMissRate float64
	L1DMissRate    float64
	L1IMissRate    float64
	IPC            float64
}

// Sim consumes a retirement record stream once and produces timing plus
// energy for every gating mode in its bank. The timing core is
// mode-independent: it describes each access as (structure, software
// width, value) to a power.Bank, which accrues all modes at once.
type Sim struct {
	cfg   Config
	bank  *power.Bank
	pred  *bpred.Predictor
	hier  *cache.Hierarchy
	stat  []static // predecoded program, one entry per static instruction
	waste int      // wrong-path front-end accesses charged per mispredict

	// regReady[r] is the cycle architectural register r's value is ready.
	// The zero register is never written, so it is always ready; slot
	// noReg absorbs the writeback of instructions without a destination.
	regReady        [isa.NumRegs + 1]int64
	fetchCycle      int64
	fetchedInCycle  int
	lastFetchLine   int64
	pendingRedirect int64 // earliest fetch cycle after a mispredict

	// Issue-bandwidth ring: issued[c & ringMask] counts issues in cycle
	// c; epochs detect stale slots.
	issued     []int8
	issueEpoch []int64

	// Free-window tracking: retire cycles of the last WindowSize
	// instructions, as a ring.
	windowRing []int64
	windowPos  int

	// Physical-register tracking: completion cycles of the last
	// (PhysRegs - NumRegs) register-writing instructions.
	physRing []int64
	physPos  int

	// FU next-free cycles.
	aluFree []int64
	mulFree []int64

	l1iHit         int64 // L1I hit latency: fetch stalls only beyond it
	lastRetire     int64
	retiredInCycle int
	retired        int64

	results []*Result // built once by FinishAll
}

const (
	ringSize = 1 << 14
	ringMask = ringSize - 1
	noReg    = isa.NumRegs
)

// Branch kinds of a static instruction.
const (
	brNone   uint8 = iota
	brUncond       // direct jump: a predictor access, never mispredicted
	brCond
	brCall
	brReturn
)

// static is the predecoded form of one static instruction: everything
// the core needs per retirement, resolved once at construction so the
// per-record loop reads only this entry and the record columns. Its
// power.Shape is what the bank charges per retirement; Writes also
// allocates a physical register, and Mem issues a data-cache access.
type static struct {
	line int64    // I-cache line holding the instruction
	lat  int64    // functional-unit latency
	uses [3]uint8 // registers read; unused slots hold the zero register
	dest uint8    // register written, or noReg
	power.Shape
	mul    bool // issues to the multiply/divide unit
	store  bool
	branch uint8
}

// predecode builds the static table of p. The I-cache line of each entry
// is the timing core's to fill (NewMulti).
func predecode(p *prog.Program) ([]static, error) {
	tab := make([]static, len(p.Ins))
	for i := range p.Ins {
		in := &p.Ins[i]
		st := &tab[i]
		if w := in.Width.Bytes(); w > 8 {
			return nil, fmt.Errorf("uarch: instruction %d: operand width %d bytes", i, w)
		}
		st.lat = int64(isa.Latency(in.Op))
		st.Width = uint8(in.Width.Bytes())
		uses, n := in.Uses()
		for k := range st.uses {
			st.uses[k] = isa.ZeroReg
			if k < n && uses[k] != isa.ZeroReg {
				st.uses[k] = uint8(uses[k])
				if k == 0 {
					st.ReadsA = true
				} else {
					st.ReadsB++
				}
			}
		}
		st.dest = noReg
		if d, ok := in.Dest(); ok {
			st.dest = uint8(d)
		}
		st.Writes = st.dest != noReg || in.Op == isa.OpJSR
		class := isa.ClassOf(in.Op)
		st.mul = class == isa.ClassMul
		st.Mem = isa.IsMem(in.Op)
		st.store = in.Op == isa.OpST
		st.FU = class != isa.ClassBranch && class != isa.ClassNone &&
			class != isa.ClassLoad && class != isa.ClassStore && in.Op != isa.OpHALT
		switch {
		case isa.IsCondBranch(in.Op):
			st.branch = brCond
		case in.Op == isa.OpJSR:
			st.branch = brCall
		case in.Op == isa.OpRET:
			st.branch = brReturn
		case isa.IsBranch(in.Op):
			st.branch = brUncond
		}
	}
	return tab, nil
}

// validate rejects machine configurations the core cannot simulate: a
// non-positive issue width would spin the issue loop forever, and empty
// windows, FU pools or predictor tables would index out of range.
func (c *Config) validate() error {
	for _, f := range []struct {
		name string
		v    int
	}{
		{"FetchWidth", c.FetchWidth},
		{"DecodeWidth", c.DecodeWidth},
		{"IssueWidth", c.IssueWidth},
		{"RetireWidth", c.RetireWidth},
		{"WindowSize", c.WindowSize},
		{"IntALUs", c.IntALUs},
		{"IntMulDiv", c.IntMulDiv},
		{"InstrBytes", c.InstrBytes},
	} {
		if f.v <= 0 {
			return fmt.Errorf("uarch: %s must be positive, got %d", f.name, f.v)
		}
	}
	if c.IssueWidth > math.MaxInt8 {
		return fmt.Errorf("uarch: IssueWidth %d exceeds %d", c.IssueWidth, math.MaxInt8)
	}
	return c.Predictor.Validate()
}

// NewMulti builds a fused simulator of p whose power bank accrues every
// listed gating mode in one traversal of the retirement stream, plus a
// software overlay (power.NewBank) per entry of overlays: the widths of a
// width-only rewrite of p (vrp.Result.Width). The rewrite retires p's
// path with p's opcodes, so p's timing is its timing and the overlay's
// Result equals a GateSoftware run of the rewrite, bit for bit. FinishAll
// returns one Result per mode, then one per overlay, in the given order.
// Modes and overlays together number 1 to power.MaxMeters.
func NewMulti(p *prog.Program, cfg Config, params power.Params, modes []power.GatingMode, overlays ...[]isa.Width) (*Sim, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	over := make([][]uint8, len(overlays))
	for k, ws := range overlays {
		if len(ws) != len(p.Ins) {
			return nil, fmt.Errorf("uarch: overlay %d: %d widths for %d instructions", k, len(ws), len(p.Ins))
		}
		for i, w := range ws {
			if w.Bytes() > 8 {
				return nil, fmt.Errorf("uarch: overlay %d: instruction %d: operand width %d bytes", k, i, w.Bytes())
			}
			over[k] = append(over[k], uint8(w.Bytes()))
		}
	}
	bank, err := power.NewBank(params, modes, over...)
	if err != nil {
		return nil, err
	}
	hier, err := cache.NewHierarchy(cfg.Memory)
	if err != nil {
		return nil, err
	}
	l1i := hier.L1I.Config()
	stat, err := predecode(p)
	if err != nil {
		return nil, err
	}
	for i := range stat {
		stat[i].line = int64(i) * int64(cfg.InstrBytes) / int64(l1i.LineBytes)
	}
	return &Sim{
		cfg:           cfg,
		bank:          bank,
		pred:          bpred.New(cfg.Predictor),
		hier:          hier,
		stat:          stat,
		waste:         int(cfg.WrongPathFactor * float64(cfg.FetchWidth*cfg.FrontendDepth)),
		issued:        make([]int8, ringSize),
		issueEpoch:    make([]int64, ringSize),
		windowRing:    make([]int64, cfg.WindowSize),
		physRing:      make([]int64, max(1, cfg.PhysRegs-isa.NumRegs)),
		aluFree:       make([]int64, cfg.IntALUs),
		mulFree:       make([]int64, cfg.IntMulDiv),
		l1iHit:        int64(l1i.HitCycles),
		lastFetchLine: -1,
	}, nil
}

// Run executes the program to completion under the simulator and returns
// timing and energy results.
func Run(p *prog.Program, cfg Config, params power.Params, mode power.GatingMode) (*Result, error) {
	rs, err := RunModes(p, cfg, params, []power.GatingMode{mode})
	if err != nil {
		return nil, err
	}
	return rs[0], nil
}

// RunModes performs one functional emulation and one timing traversal of p
// while a bank of meters accrues every requested gating mode, returning
// one Result per mode (timing fields identical, energy per mode). It is
// exactly equivalent to — and bit-identical with — len(modes) independent
// Run calls, at one emulation and one timing pass of cost.
func RunModes(p *prog.Program, cfg Config, params power.Params, modes []power.GatingMode) ([]*Result, error) {
	s, err := NewMulti(p, cfg, params, modes)
	if err != nil {
		return nil, err
	}
	m := emu.New(p)
	defer m.Release()
	m.Sink = s
	if err := m.Run(); err != nil {
		return nil, err
	}
	return s.FinishAll(), nil
}

// ReplayModes is RunModes driven by a captured retirement trace instead of
// a live emulation: the trace's packed records stream once through the
// fused timing core. The trace must reproduce the live stream exactly
// (the emu.Trace invariant), so results are identical to RunModes on the
// traced program.
func ReplayModes(tr *emu.Trace, cfg Config, params power.Params, modes []power.GatingMode) ([]*Result, error) {
	s, err := NewMulti(tr.Program(), cfg, params, modes)
	if err != nil {
		return nil, err
	}
	tr.Records(s)
	return s.FinishAll(), nil
}

// ConsumeRecs advances the pipeline model over a batch of retired
// instructions of the simulated program (it implements emu.Sink).
func (s *Sim) ConsumeRecs(b emu.RecBatch) {
	cfg := &s.cfg
	bank := s.bank
	stat := s.stat
	n := len(b.Idx)
	nexts, flags := b.Next[:n], b.Flags[:n]
	addrs, values, srcAs, srcBs := b.Addr[:n], b.Value[:n], b.SrcA[:n], b.SrcB[:n]
	for i, idx := range b.Idx {
		st := &stat[idx]
		s.retired++

		// --- Fetch -----------------------------------------------------
		if s.pendingRedirect > s.fetchCycle {
			s.fetchCycle = s.pendingRedirect
			s.fetchedInCycle = 0
			s.lastFetchLine = -1
		}
		if s.fetchedInCycle >= cfg.FetchWidth {
			s.fetchCycle++
			s.fetchedInCycle = 0
		}
		// The I-cache is read on every fetch (the line-buffer hit path
		// is folded into the per-access fixed cost); misses are modelled
		// when the fetch group crosses into a new line.
		bank.AccessFixed(power.ICache)
		if st.line != s.lastFetchLine {
			lat, l2 := s.hier.InstrAccess(int64(idx) * int64(cfg.InstrBytes))
			if l2 {
				bank.AccessFixed(power.L2Cache)
			}
			if stall := int64(lat) - s.l1iHit; stall > 0 {
				s.fetchCycle += stall
				s.fetchedInCycle = 0
			}
			s.lastFetchLine = st.line
		}
		s.fetchedInCycle++

		// --- Rename / dispatch -------------------------------------------
		bank.AccessFixed(power.Rename)
		dispatch := s.fetchCycle + int64(cfg.FrontendDepth)
		// Window occupancy: cannot dispatch until the instruction
		// WindowSize back has retired.
		if w := s.windowRing[s.windowPos]; dispatch <= w {
			dispatch = w + 1
		}
		// Physical registers: a writer needs a free register, available
		// when the (PhysRegs-NumRegs)-back writer retired.
		if st.Writes {
			if w := s.physRing[s.physPos]; dispatch <= w {
				dispatch = w + 1
			}
		}

		// --- Operand readiness ---------------------------------------------
		// Unused slots read the zero register, which is always ready.
		ready := max(dispatch+1, s.regReady[st.uses[0]], s.regReady[st.uses[1]], s.regReady[st.uses[2]])

		// --- Issue ---------------------------------------------------------
		// Branches and halts resolve on an ALU port too.
		fu := s.aluFree
		if st.mul {
			fu = s.mulFree
		}
		issue := ready
		// Find an FU and an issue slot.
		for {
			// FU availability.
			best := -1
			for j := range fu {
				if fu[j] <= issue && (best < 0 || fu[j] < fu[best]) {
					best = j
				}
			}
			if best < 0 {
				// Earliest any unit frees.
				issue = fu[0]
				for _, t := range fu[1:] {
					issue = min(issue, t)
				}
				continue
			}
			// Issue bandwidth.
			slot := issue & ringMask
			if s.issueEpoch[slot] != issue {
				s.issueEpoch[slot] = issue
				s.issued[slot] = 0
			}
			if int(s.issued[slot]) >= cfg.IssueWidth {
				issue++
				continue
			}
			s.issued[slot]++
			fu[best] = issue + st.lat
			break
		}

		// --- Execute / memory ---------------------------------------------
		done := issue + st.lat
		if st.Mem {
			lat, l2 := s.hier.DataAccess(addrs[i], st.store)
			done = issue + int64(lat)
			if l2 {
				bank.AccessFixed(power.L2Cache)
			}
		}
		bank.AccessFixed(power.ROB)

		// --- Energy: the value-driven accesses ------------------------------
		bank.Charge(idx, st.Shape, addrs[i], values[i], srcAs[i], srcBs[i])

		// --- Branch resolution ----------------------------------------------
		if st.branch != brNone {
			bank.AccessFixed(power.BPred)
			miss := false
			switch st.branch {
			case brCond:
				s.pred.Predict(int(idx))
				miss = s.pred.Update(int(idx), flags[i]&emu.RecTaken != 0)
			case brCall:
				s.pred.Call(int(idx) + 1)
			case brReturn:
				miss = s.pred.Return(int(nexts[i]))
			}
			if miss {
				s.pendingRedirect = done + int64(cfg.RedirectPenalty)
				// Wrong-path energy: wasted front-end work.
				for range s.waste {
					bank.AccessFixed(power.ICache)
					bank.AccessFixed(power.Rename)
				}
			}
		}

		// --- Writeback (to noReg when there is no destination) ---------------
		s.regReady[st.dest] = done

		// --- Retire (in order) -------------------------------------------------
		retire := max(done+1, s.lastRetire)
		if retire == s.lastRetire {
			s.retiredInCycle++
			if s.retiredInCycle >= cfg.RetireWidth {
				retire++
				s.retiredInCycle = 0
			}
		} else {
			s.retiredInCycle = 1
		}
		s.lastRetire = retire
		s.windowRing[s.windowPos] = retire
		if s.windowPos++; s.windowPos == len(s.windowRing) {
			s.windowPos = 0
		}
		if st.Writes {
			s.physRing[s.physPos] = retire
			if s.physPos++; s.physPos == len(s.physRing) {
				s.physPos = 0
			}
		}
	}
}

// FinishAll closes the simulation and returns one Result per gating mode
// and then per overlay, in NewMulti order. Timing fields are shared
// (gating is energy-only); each Result carries its own meter. Idempotent.
func (s *Sim) FinishAll() []*Result {
	if s.results != nil {
		return s.results
	}
	cycles := s.lastRetire + 1
	ipc := 0.0
	if cycles > 0 {
		ipc = float64(s.retired) / float64(cycles)
	}
	meters := s.bank.Meters()
	s.results = make([]*Result, len(meters))
	for i, m := range meters {
		m.Tick(cycles)
		s.results[i] = &Result{
			Cycles:         cycles,
			Instructions:   s.retired,
			Energy:         m,
			BranchMissRate: s.pred.MissRate(),
			L1DMissRate:    s.hier.L1D.MissRate(),
			L1IMissRate:    s.hier.L1I.MissRate(),
			IPC:            ipc,
		}
	}
	return s.results
}

// fixedOnly are the structures the timing core reaches only through
// AccessFixed: every structure but the value-driven ones (Charge). Each
// access adds one mode-independent constant, so their access counts and
// energy depend on the retired path and the cycle count alone.
var fixedOnly = [...]power.Structure{power.ICache, power.L2Cache, power.Rename, power.ROB, power.BPred}

// Rewrite is the energy-only sink of a width-only rewrite (vrp.Result.Apply)
// of a binary whose timing pass has run. The rewrite retires that base
// binary's path with its opcodes, so the base's timing is its timing and
// the base's fixedOnly structures are its structures, access for access.
// Rewrite therefore runs no timing core: it holds no cache hierarchy,
// predictor or issue, window and register rings, and charges only the
// value-driven accesses (Charge) of the rewrite's own records, at the
// rewrite's widths and values.
type Rewrite struct {
	bank    *power.Bank
	stat    []static
	base    *Result
	results []*Result // built once by FinishAll
}

// NewRewrite returns the energy-only sink of q, a width-only rewrite of
// the binary whose timing pass gave base (any of its meters' Results),
// accruing every listed gating mode (1 to power.MaxMeters). Fed q's
// records, its FinishAll equals FinishAll of NewMulti(q, cfg, params,
// modes) fed the same records, bit for bit, under the cfg that timed base.
func NewRewrite(q *prog.Program, params power.Params, modes []power.GatingMode, base *Result) (*Rewrite, error) {
	bank, err := power.NewBank(params, modes)
	if err != nil {
		return nil, err
	}
	stat, err := predecode(q)
	if err != nil {
		return nil, err
	}
	return &Rewrite{
		bank: bank,
		stat: stat,
		base: base,
	}, nil
}

// ConsumeRecs charges a batch of the rewrite's retired instructions (it
// implements emu.Sink).
func (r *Rewrite) ConsumeRecs(b emu.RecBatch) {
	n := len(b.Idx)
	addrs, values, srcAs, srcBs := b.Addr[:n], b.Value[:n], b.SrcA[:n], b.SrcB[:n]
	for i, idx := range b.Idx {
		r.bank.Charge(idx, r.stat[idx].Shape, addrs[i], values[i], srcAs[i], srcBs[i])
	}
}

// FinishAll returns one Result per gating mode, in NewRewrite order: the
// base's timing and fixedOnly structures, and the rewrite's own
// value-driven energy. Idempotent.
func (r *Rewrite) FinishAll() []*Result {
	if r.results != nil {
		return r.results
	}
	base := r.base
	meters := r.bank.Meters()
	r.results = make([]*Result, len(meters))
	for i, m := range meters {
		m.Tick(base.Cycles)
		for _, s := range fixedOnly {
			m.Energy[s] = base.Energy.Energy[s]
			m.Accesses[s] = base.Energy.Accesses[s]
		}
		res := *base
		res.Energy = m
		r.results[i] = &res
	}
	return r.results
}
