// Package bpred implements the combined branch predictor of Table 2: a
// gshare component with 64K 2-bit counters and 16 bits of global history,
// a bimodal component with 2K 2-bit counters, and a 1K-entry chooser that
// learns which component to trust per branch. A return-address stack
// predicts returns.
package bpred

import "fmt"

// counter is a 2-bit saturating counter.
type counter uint8

func (c counter) taken() bool { return c >= 2 }

func (c counter) update(taken bool) counter {
	if taken {
		if c < 3 {
			return c + 1
		}
		return c
	}
	if c > 0 {
		return c - 1
	}
	return c
}

// Config sizes the predictor tables (entries must be powers of two).
type Config struct {
	GshareEntries  int
	HistoryBits    int
	BimodalEntries int
	ChooserEntries int
	RASEntries     int
}

// Validate reports a configuration the predictor cannot index: table
// sizes must be positive powers of two and the return-address stack must
// hold at least one entry.
func (c Config) Validate() error {
	for _, f := range []struct {
		name string
		v    int
	}{
		{"GshareEntries", c.GshareEntries},
		{"BimodalEntries", c.BimodalEntries},
		{"ChooserEntries", c.ChooserEntries},
	} {
		if f.v <= 0 || f.v&(f.v-1) != 0 {
			return fmt.Errorf("bpred: %s must be a positive power of two, got %d", f.name, f.v)
		}
	}
	if c.RASEntries <= 0 {
		return fmt.Errorf("bpred: RASEntries must be positive, got %d", c.RASEntries)
	}
	return nil
}

// DefaultConfig returns the paper's Table 2 configuration.
func DefaultConfig() Config {
	return Config{
		GshareEntries:  64 * 1024,
		HistoryBits:    16,
		BimodalEntries: 2 * 1024,
		ChooserEntries: 1024,
		RASEntries:     16,
	}
}

// Predictor is a combined (tournament) branch predictor.
type Predictor struct {
	cfg     Config
	gshare  []counter
	bimodal []counter
	chooser []counter // >=2: trust gshare
	history uint32
	ras     []int

	// Statistics.
	Lookups     int64
	Mispredicts int64
}

// New builds a predictor; counters start weakly not-taken, the chooser
// unbiased.
func New(cfg Config) *Predictor {
	p := &Predictor{
		cfg:     cfg,
		gshare:  make([]counter, cfg.GshareEntries),
		bimodal: make([]counter, cfg.BimodalEntries),
		chooser: make([]counter, cfg.ChooserEntries),
	}
	for i := range p.gshare {
		p.gshare[i] = 1
	}
	for i := range p.bimodal {
		p.bimodal[i] = 1
	}
	for i := range p.chooser {
		p.chooser[i] = 2
	}
	return p
}

func (p *Predictor) gshareIndex(pc int) int {
	h := p.history & (1<<uint(p.cfg.HistoryBits) - 1)
	return (pc ^ int(h)) & (p.cfg.GshareEntries - 1)
}

// Predict returns the predicted direction for a conditional branch at pc.
func (p *Predictor) Predict(pc int) bool {
	p.Lookups++
	g := p.gshare[p.gshareIndex(pc)].taken()
	b := p.bimodal[pc&(p.cfg.BimodalEntries-1)].taken()
	if p.chooser[pc&(p.cfg.ChooserEntries-1)].taken() {
		return g
	}
	return b
}

// Update trains the predictor with the actual outcome and reports whether
// the earlier prediction would have been wrong.
func (p *Predictor) Update(pc int, taken bool) bool {
	gi := p.gshareIndex(pc)
	bi := pc & (p.cfg.BimodalEntries - 1)
	ci := pc & (p.cfg.ChooserEntries - 1)

	g := p.gshare[gi].taken()
	b := p.bimodal[bi].taken()
	var pred bool
	if p.chooser[ci].taken() {
		pred = g
	} else {
		pred = b
	}

	// Chooser trains toward the component that was right (only when they
	// disagree).
	if g != b {
		p.chooser[ci] = p.chooser[ci].update(g == taken)
	}
	p.gshare[gi] = p.gshare[gi].update(taken)
	p.bimodal[bi] = p.bimodal[bi].update(taken)
	p.history = p.history<<1 | b2u(taken)

	miss := pred != taken
	if miss {
		p.Mispredicts++
	}
	return miss
}

// Call pushes a return address on the RAS.
func (p *Predictor) Call(returnTo int) {
	if len(p.ras) >= p.cfg.RASEntries {
		copy(p.ras, p.ras[1:])
		p.ras = p.ras[:len(p.ras)-1]
	}
	p.ras = append(p.ras, returnTo)
}

// Return pops the RAS and reports the predicted return target and whether
// the prediction matched actual.
func (p *Predictor) Return(actual int) bool {
	p.Lookups++
	if len(p.ras) == 0 {
		p.Mispredicts++
		return true
	}
	top := p.ras[len(p.ras)-1]
	p.ras = p.ras[:len(p.ras)-1]
	miss := top != actual
	if miss {
		p.Mispredicts++
	}
	return miss
}

// MissRate returns the fraction of mispredicted lookups.
func (p *Predictor) MissRate() float64 {
	if p.Lookups == 0 {
		return 0
	}
	return float64(p.Mispredicts) / float64(p.Lookups)
}

func b2u(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}
