package emu_test

import (
	"testing"

	"opgate/internal/asm"
	"opgate/internal/emu"
)

func TestTNVSingleDominantValue(t *testing.T) {
	tbl := emu.NewTNVTable(8, 64)
	for i := 0; i < 1000; i++ {
		tbl.Record(7)
	}
	for i := 0; i < 10; i++ {
		tbl.Record(int64(i * 1000))
	}
	min, max, freq, ok := tbl.CoverageRange(0.9)
	if !ok {
		t.Fatal("no coverage")
	}
	if min != 7 || max != 7 {
		t.Errorf("range [%d,%d], want [7,7]", min, max)
	}
	if freq < 0.9 {
		t.Errorf("freq = %v", freq)
	}
}

func TestTNVDiffuseCounter(t *testing.T) {
	// A counter 0..999: no single value dominates, but the width buckets
	// cover it exactly with 2 bytes.
	tbl := emu.NewTNVTable(8, 64)
	for i := 0; i < 1000; i++ {
		tbl.Record(int64(i))
	}
	min, max, freq, ok := tbl.CoverageRange(0.95)
	if !ok {
		t.Fatal("no coverage")
	}
	if min != 0 || max != 999 {
		t.Errorf("range [%d,%d], want [0,999]", min, max)
	}
	if freq != 1.0 {
		t.Errorf("freq = %v, want 1.0 (width buckets are exact)", freq)
	}
}

func TestTNVEviction(t *testing.T) {
	// More distinct values than capacity: the table keeps counting
	// totals and survives cleaning.
	tbl := emu.NewTNVTable(4, 16)
	for i := 0; i < 1000; i++ {
		tbl.Record(int64(i % 100))
	}
	if tbl.Total != 1000 {
		t.Errorf("Total = %d", tbl.Total)
	}
	if len(tbl.Entries()) > 4 {
		t.Errorf("table holds %d entries, capacity 4", len(tbl.Entries()))
	}
}

// TestProfilerAttach: a profiler attached to a live run records every
// retirement of its point.
func TestProfilerAttach(t *testing.T) {
	p, err := asm.Assemble(`
.func main
	lda r1, 0(rz)
loop:
	mul r2, r1, #3
	add r1, r1, #1
	cmplt r3, r1, #100
	bne r3, loop
	halt
`)
	if err != nil {
		t.Fatal(err)
	}
	mulIdx := 1
	prof := emu.NewProfiler(len(p.Ins), []int{mulIdx})
	m := emu.New(p)
	m.Sink = prof
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	tbl := prof.Points[mulIdx]
	if tbl.Total != 100 {
		t.Fatalf("profiled %d events, want 100", tbl.Total)
	}
	min, max, _, ok := tbl.CoverageRange(0.99)
	if !ok || min != 0 || max != 297 {
		t.Errorf("profiled range [%d,%d], want [0,297]", min, max)
	}
}
