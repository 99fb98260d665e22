// Package cache implements set-associative write-back caches with LRU
// replacement, composed into the two-level hierarchy of Table 2.
package cache

import (
	"fmt"
	"math/bits"
)

// Config describes one cache level.
type Config struct {
	Name      string
	SizeBytes int
	Assoc     int
	LineBytes int
	HitCycles int
}

// line is one cache line's metadata.
type line struct {
	tag   int64
	valid bool
	dirty bool
	lru   int64 // last-use stamp
}

// Cache is one set-associative level.
type Cache struct {
	cfg       Config
	lines     []line // set-major: set i holds lines[i*Assoc : (i+1)*Assoc]
	lineShift uint   // log2(LineBytes)
	setShift  uint   // log2(nsets)
	setMask   int64  // nsets - 1
	stamp     int64

	Hits       int64
	Misses     int64
	Writebacks int64
}

// New builds a cache; the configuration must divide evenly, and the line
// size and set count must be powers of two (Access indexes by shift and
// mask).
func New(cfg Config) (*Cache, error) {
	if cfg.LineBytes <= 0 || cfg.Assoc <= 0 || cfg.SizeBytes <= 0 {
		return nil, fmt.Errorf("cache %s: bad geometry", cfg.Name)
	}
	if !isPow2(cfg.LineBytes) {
		return nil, fmt.Errorf("cache %s: LineBytes %d is not a power of two", cfg.Name, cfg.LineBytes)
	}
	nsets := cfg.SizeBytes / (cfg.LineBytes * cfg.Assoc)
	if nsets <= 0 || cfg.SizeBytes%(cfg.LineBytes*cfg.Assoc) != 0 {
		return nil, fmt.Errorf("cache %s: size %d not divisible by assoc*line", cfg.Name, cfg.SizeBytes)
	}
	if !isPow2(nsets) {
		return nil, fmt.Errorf("cache %s: SizeBytes %d gives %d sets, not a power of two", cfg.Name, cfg.SizeBytes, nsets)
	}
	return &Cache{
		cfg:       cfg,
		lines:     make([]line, nsets*cfg.Assoc),
		lineShift: uint(bits.TrailingZeros(uint(cfg.LineBytes))),
		setShift:  uint(bits.TrailingZeros(uint(nsets))),
		setMask:   int64(nsets - 1),
	}, nil
}

func isPow2(n int) bool { return n > 0 && n&(n-1) == 0 }

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// AccessResult describes the outcome of one access.
type AccessResult struct {
	Hit        bool
	Writeback  bool // a dirty victim was evicted
	VictimAddr int64
}

// Access touches addr; write marks the line dirty. On a miss, the line is
// filled (the caller models the lower-level access) and the LRU victim is
// evicted, reporting any required writeback.
func (c *Cache) Access(addr int64, write bool) AccessResult {
	c.stamp++
	block := addr >> c.lineShift
	set := int(block & c.setMask)
	tag := block >> c.setShift
	lines := c.lines[set*c.cfg.Assoc:][:c.cfg.Assoc]

	for i := range lines {
		if lines[i].valid && lines[i].tag == tag {
			c.Hits++
			lines[i].lru = c.stamp
			if write {
				lines[i].dirty = true
			}
			return AccessResult{Hit: true}
		}
	}

	c.Misses++
	// Victim: invalid first, else LRU.
	victim := 0
	for i := range lines {
		if !lines[i].valid {
			victim = i
			break
		}
		if lines[i].lru < lines[victim].lru {
			victim = i
		}
	}
	res := AccessResult{}
	if lines[victim].valid && lines[victim].dirty {
		c.Writebacks++
		res.Writeback = true
		res.VictimAddr = (lines[victim].tag<<c.setShift | int64(set)) << c.lineShift
	}
	lines[victim] = line{tag: tag, valid: true, dirty: write, lru: c.stamp}
	return res
}

// MissRate returns the fraction of accesses that missed.
func (c *Cache) MissRate() float64 {
	total := c.Hits + c.Misses
	if total == 0 {
		return 0
	}
	return float64(c.Misses) / float64(total)
}

// Hierarchy is the Table 2 memory system: split L1 I/D over a unified L2
// over main memory.
type Hierarchy struct {
	L1I, L1D, L2 *Cache

	L2HitCycles   int
	MemFirstChunk int
	MemInterChunk int
	L1MissPenalty int
}

// HierarchyConfig sizes the full memory system.
type HierarchyConfig struct {
	L1I, L1D, L2  Config
	MemFirstChunk int
	MemInterChunk int
}

// DefaultHierarchyConfig returns Table 2's memory system: 64KB 2-way
// 32-byte-line L1s with a 6-cycle miss penalty, a 256KB 4-way
// 64-byte-line L2 with 6-cycle hits, and a 16-cycle-first-chunk memory.
func DefaultHierarchyConfig() HierarchyConfig {
	return HierarchyConfig{
		L1I:           Config{Name: "L1I", SizeBytes: 64 << 10, Assoc: 2, LineBytes: 32, HitCycles: 1},
		L1D:           Config{Name: "L1D", SizeBytes: 64 << 10, Assoc: 2, LineBytes: 32, HitCycles: 1},
		L2:            Config{Name: "L2", SizeBytes: 256 << 10, Assoc: 4, LineBytes: 64, HitCycles: 6},
		MemFirstChunk: 16,
		MemInterChunk: 2,
	}
}

// NewHierarchy builds the memory system.
func NewHierarchy(cfg HierarchyConfig) (*Hierarchy, error) {
	l1i, err := New(cfg.L1I)
	if err != nil {
		return nil, err
	}
	l1d, err := New(cfg.L1D)
	if err != nil {
		return nil, err
	}
	l2, err := New(cfg.L2)
	if err != nil {
		return nil, err
	}
	return &Hierarchy{
		L1I: l1i, L1D: l1d, L2: l2,
		L2HitCycles:   cfg.L2.HitCycles,
		MemFirstChunk: cfg.MemFirstChunk,
		MemInterChunk: cfg.MemInterChunk,
		L1MissPenalty: 6,
	}, nil
}

// DataAccess performs a load/store and returns its latency in cycles and
// whether each level was accessed (for energy accounting).
func (h *Hierarchy) DataAccess(addr int64, write bool) (cycles int, l2Accessed bool) {
	r1 := h.L1D.Access(addr, write)
	if r1.Hit {
		return h.L1D.cfg.HitCycles, false
	}
	cycles = h.L1D.cfg.HitCycles + h.L1MissPenalty
	r2 := h.L2.Access(addr, false)
	if r1.Writeback {
		h.L2.Access(r1.VictimAddr, true)
	}
	if !r2.Hit {
		// Line fill from memory: first chunk + remaining chunks of the
		// L2 line over a 16-byte bus.
		chunks := h.L2.cfg.LineBytes / 16
		cycles += h.MemFirstChunk + (chunks-1)*h.MemInterChunk
	} else {
		cycles += h.L2HitCycles
	}
	return cycles, true
}

// InstrAccess models a fetch-line access; returns latency and whether L2
// was reached.
func (h *Hierarchy) InstrAccess(addr int64) (cycles int, l2Accessed bool) {
	r1 := h.L1I.Access(addr, false)
	if r1.Hit {
		return h.L1I.cfg.HitCycles, false
	}
	cycles = h.L1I.cfg.HitCycles + h.L1MissPenalty
	r2 := h.L2.Access(addr, false)
	if !r2.Hit {
		chunks := h.L2.cfg.LineBytes / 16
		cycles += h.MemFirstChunk + (chunks-1)*h.MemInterChunk
	} else {
		cycles += h.L2HitCycles
	}
	return cycles, true
}
