package emu_test

import (
	"bytes"
	"runtime"
	"sync"
	"testing"

	"opgate/internal/emu"
	"opgate/internal/prog"
)

// dirtyProgram writes all over its image: data stores, a stack push at
// the top of memory, and (from the test) StoreBytes far from both.
const dirtyProgram = `
.data
a: .word 1, 2, 3, 4
buf: .space 8192
.text
.func main
	lda r1, =buf
	lda r2, -1(rz)
	st.q r2, 0(r1)
	st.q r2, 4096(r1)
	st.b r2, 8191(r1)
	lda sp, -16(sp)
	st.q r2, 8(sp)
	jsr leaf
	out.b r2
	halt
.func leaf
	lda r3, 77(rz)
	st.w r3, 0(sp)
	ret
`

// cleanProgram has the same memory size but different initial data.
const cleanProgram = `
.data
b: .byte 9, 8, 7
.text
.func main
	lda r1, =b
	ld.b r2, 0(r1)
	out.b r2
	halt
`

// freshImage is the initial memory a never-pooled machine would start
// from: a zeroed image of MemSize with the program's data copied in.
func freshImage(p *prog.Program) []byte {
	mem := make([]byte, p.MemSize)
	copy(mem, p.Data)
	return mem
}

// TestRecycledImageMatchesFresh: a machine built on an image another
// program dirtied — through executed stores, the stack and StoreBytes —
// and released starts from memory byte-equal to a freshly allocated one.
func TestRecycledImageMatchesFresh(t *testing.T) {
	dirty := assembleProg(t, dirtyProgram)
	clean := assembleProg(t, cleanProgram)
	if dirty.MemSize != clean.MemSize || bytes.Equal(dirty.Data, clean.Data) {
		t.Fatal("test programs must share a memory size and differ in data")
	}
	m := emu.New(dirty)
	if err := m.StoreBytes(dirty.DataBase+dirty.MemSize/2, []byte{0xAA, 0xBB, 0xCC}); err != nil {
		t.Fatal(err)
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(m.Mem, freshImage(dirty)) {
		t.Fatal("dirty program left its image untouched; the test would prove nothing")
	}
	img := &m.Mem[0]
	m.Release()

	r := emu.New(clean)
	defer r.Release()
	if &r.Mem[0] != img {
		t.Fatal("New did not draw the released image from the pool")
	}
	if !bytes.Equal(r.Mem, freshImage(clean)) {
		t.Fatal("recycled image differs from a fresh make + Data image")
	}
	if err := r.Run(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(r.Output, []byte{9}) {
		t.Fatalf("output %v on a recycled image, want [9]", r.Output)
	}
}

// TestReleaseTwiceIsNoop: a second Release must not put the image in the
// pool twice, where two later machines would share it.
func TestReleaseTwiceIsNoop(t *testing.T) {
	p := assembleProg(t, cleanProgram)
	m := emu.New(p)
	m.Release()
	m.Release()
	if m.Mem != nil {
		t.Fatal("Mem still set after Release")
	}
	a, b := emu.New(p), emu.New(p)
	defer a.Release()
	defer b.Release()
	if &a.Mem[0] == &b.Mem[0] {
		t.Fatal("two live machines share one memory image")
	}
}

// TestResetAfterReleaseReacquires: a released machine refuses to run,
// and Reset gives it a fresh image it runs correctly on.
func TestResetAfterReleaseReacquires(t *testing.T) {
	p := assembleProg(t, dirtyProgram)
	m := emu.New(p)
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	want := append([]byte(nil), m.Mem...)
	m.Release()
	unrun := emu.New(p)
	unrun.Release()
	if err := unrun.Run(); err == nil {
		t.Fatal("a released machine ran")
	}
	m.Reset()
	defer m.Release()
	if !bytes.Equal(m.Mem, freshImage(p)) {
		t.Fatal("Reset after Release did not restore the initial image")
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(m.Mem, want) {
		t.Fatal("run on the re-acquired image ended in a different memory state")
	}
}

// TestPooledCyclesDoNotAllocateImages: New/Run/Release cycles reuse one
// image (and its record buffer) instead of allocating 8 MiB each.
func TestPooledCyclesDoNotAllocateImages(t *testing.T) {
	p := assembleProg(t, dirtyProgram)
	var recs int64
	sink := emu.RecFunc(func(b emu.RecBatch) { recs += int64(b.Len()) })
	cycle := func() {
		m := emu.New(p)
		m.Sink = sink
		if err := m.Run(); err != nil {
			t.Fatal(err)
		}
		m.Release()
	}
	cycle() // the pool may start empty
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 10; i++ {
		cycle()
	}
	runtime.ReadMemStats(&after)
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(2*p.MemSize); got >= limit {
		t.Fatalf("10 pooled cycles allocated %d bytes, want < %d (two images)", got, limit)
	}
	if recs == 0 {
		t.Fatal("sink saw no records")
	}
}

// TestEquivalenceChecksDoNotAllocateImages: CheckEquivalence releases
// both of its machines, so repeated checks reuse two pooled images
// instead of allocating 16 MiB each.
func TestEquivalenceChecksDoNotAllocateImages(t *testing.T) {
	p, q := assembleProg(t, dirtyProgram), assembleProg(t, dirtyProgram)
	check := func() {
		if err := emu.CheckEquivalence(p, q); err != nil {
			t.Fatal(err)
		}
	}
	check() // the pool may start empty
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 10; i++ {
		check()
	}
	runtime.ReadMemStats(&after)
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(2*p.MemSize); got >= limit {
		t.Fatalf("10 equivalence checks allocated %d bytes, want < %d (two images)", got, limit)
	}
}

// TestExecuteResultOutlivesRelease: Execute hands its image back to the
// pool, so the memory in its result must be a copy that later machines
// drawing that image cannot disturb.
func TestExecuteResultOutlivesRelease(t *testing.T) {
	p := assembleProg(t, dirtyProgram)
	res, err := emu.Execute(p)
	if err != nil {
		t.Fatal(err)
	}
	want := append([]byte(nil), res.Mem...)
	m := emu.New(assembleProg(t, cleanProgram))
	defer m.Release()
	if &m.Mem[0] == &res.Mem[0] {
		t.Fatal("Execute's result aliases a pooled image")
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Mem, want) {
		t.Fatal("a later machine changed Execute's result memory")
	}
}

// TestPoolConcurrentMachines: machines drawing from and returning to the
// pool concurrently, on programs of one memory size with different data,
// each see exactly their own initial image and outcome. Run it under
// -race.
func TestPoolConcurrentMachines(t *testing.T) {
	progs := []*prog.Program{assembleProg(t, dirtyProgram), assembleProg(t, cleanProgram)}
	var wantOut, wantMem [2][]byte
	for i, p := range progs {
		m := emu.New(p)
		if err := m.Run(); err != nil {
			t.Fatal(err)
		}
		wantOut[i] = append([]byte(nil), m.Output...)
		wantMem[i] = append([]byte(nil), m.Mem...)
		m.Release()
	}
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				k := (g + i) % 2
				m := emu.New(progs[k])
				if !bytes.Equal(m.Mem, freshImage(progs[k])) {
					errs <- "a pooled image was not scrubbed"
					return
				}
				if err := m.Run(); err != nil {
					errs <- err.Error()
					return
				}
				if !bytes.Equal(m.Output, wantOut[k]) || !bytes.Equal(m.Mem, wantMem[k]) {
					errs <- "a run on a pooled image diverged"
					return
				}
				m.Release()
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}
