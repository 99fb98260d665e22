package emu_test

import (
	"bytes"
	"testing"

	"opgate/internal/asm"
	"opgate/internal/emu"
	"opgate/internal/isa"
	"opgate/internal/prog"
)

func run(t *testing.T, src string) *emu.Machine {
	t.Helper()
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	m := emu.New(p)
	if err := m.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	return m
}

// TestALUSemantics exercises one instruction of each kind and checks the
// register state via OUT.
func TestALUSemantics(t *testing.T) {
	cases := []struct {
		name string
		body string
		want []byte
	}{
		{"add", "lda r1, 40(rz)\n add r1, r1, #2\n out.b r1", []byte{42}},
		{"sub", "lda r1, 50(rz)\n sub r1, r1, #8\n out.b r1", []byte{42}},
		{"mul", "lda r1, 6(rz)\n mul r1, r1, #7\n out.b r1", []byte{42}},
		{"and", "lda r1, 0xFF(rz)\n and r1, r1, #0x2A\n out.b r1", []byte{42}},
		{"or", "lda r1, 0x20(rz)\n or r1, r1, #0x0A\n out.b r1", []byte{42}},
		{"xor", "lda r1, 0x6A(rz)\n xor r1, r1, #0x40\n out.b r1", []byte{42}},
		{"bic", "lda r1, 0x7F(rz)\n bic r1, r1, #0x55\n out.b r1", []byte{42}},
		{"sll", "lda r1, 21(rz)\n sll r1, r1, #1\n out.b r1", []byte{42}},
		{"srl", "lda r1, 84(rz)\n srl r1, r1, #1\n out.b r1", []byte{42}},
		{"sra", "lda r1, -84(rz)\n sra r1, r1, #1\n out.b r1", []byte{0xD6}}, // -42
		{"mskl", "lda r1, 0x12A(rz)\n mskl.b r1, r1\n out.h r1", []byte{0x2A, 0x00}},
		{"sext", "lda r1, 0xFF(rz)\n sext.b r1, r1\n out.h r1", []byte{0xFF, 0xFF}}, // -1
		{"extb", "lda r1, 0x2A00(rz)\n extb r1, r1, #1\n out.b r1", []byte{42}},
		{"cmplt-true", "lda r1, 3(rz)\n cmplt r2, r1, #5\n out.b r2", []byte{1}},
		{"cmplt-false", "lda r1, 7(rz)\n cmplt r2, r1, #5\n out.b r2", []byte{0}},
		{"cmpeq", "lda r1, 5(rz)\n cmpeq r2, r1, #5\n out.b r2", []byte{1}},
		{"cmpult-neg", "lda r1, -1(rz)\n cmpult r2, r1, #5\n out.b r2", []byte{0}}, // -1 is huge unsigned
		{"cmov-taken", "lda r1, 1(rz)\n lda r2, 9(rz)\n lda r3, 42(rz)\n cmovne r2, r1, r3\n out.b r2", []byte{42}},
		{"cmov-skipped", "lda r1, 0(rz)\n lda r2, 9(rz)\n lda r3, 42(rz)\n cmovne r2, r1, r3\n out.b r2", []byte{9}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m := run(t, ".func main\n"+c.body+"\nhalt\n")
			if !bytes.Equal(m.Output, c.want) {
				t.Errorf("output = %x, want %x", m.Output, c.want)
			}
		})
	}
}

// TestNarrowALUTruncation: narrow opcodes sign-extend their result from
// the opcode width (the property that makes unsound VRP narrowing visible).
func TestNarrowALUTruncation(t *testing.T) {
	m := run(t, `
.func main
	lda r1, 200(rz)
	add.b r2, r1, #100    ; 300 -> low byte 0x2C, sign-extended
	out.h r2
	halt
`)
	// 300 = 0x12C; sext8(0x2C) = 0x2C = 44.
	want := []byte{0x2C, 0x00}
	if !bytes.Equal(m.Output, want) {
		t.Errorf("output = %x, want %x", m.Output, want)
	}
}

// TestMemorySemantics: store/load widths, zero/sign extension.
func TestMemorySemantics(t *testing.T) {
	m := run(t, `
.data
buf: .space 32
.text
.func main
	lda r1, =buf
	lda r2, -2(rz)        ; 0xFFFF...FE
	st.q r2, 0(r1)
	ld.b r3, 0(r1)        ; zero-extended byte: 0xFE
	out.h r3
	ld.w r4, 0(r1)        ; sign-extended 32-bit: -2
	cmpeq r5, r4, #-2
	out.b r5
	st.b rz, 0(r1)        ; clear low byte
	ld.q r6, 0(r1)
	cmpeq r7, r6, #-256
	out.b r7
	halt
`)
	want := []byte{0xFE, 0x00, 1, 1}
	if !bytes.Equal(m.Output, want) {
		t.Errorf("output = %x, want %x", m.Output, want)
	}
}

func TestCallsAndStack(t *testing.T) {
	m := run(t, `
.func main
	lda a0, 5(rz)
	jsr addten
	out.b rv
	lda a0, 7(rz)
	jsr addten
	out.b rv
	halt
.func addten
	add rv, a0, #10
	ret
`)
	if !bytes.Equal(m.Output, []byte{15, 17}) {
		t.Errorf("output = %v", m.Output)
	}
}

func TestGPAndSPInitialised(t *testing.T) {
	p, err := asm.Assemble(".func main\nhalt\n")
	if err != nil {
		t.Fatal(err)
	}
	m := emu.New(p)
	if m.Regs[prog.RegGP] != p.DataBase {
		t.Errorf("GP = %#x, want %#x", m.Regs[prog.RegGP], p.DataBase)
	}
	if m.Regs[prog.RegSP] != p.DataBase+p.MemSize {
		t.Errorf("SP = %#x", m.Regs[prog.RegSP])
	}
	if p.DataBase < 1<<32 {
		t.Errorf("data base %#x below 2^32: addresses would not be 5-byte values", p.DataBase)
	}
}

func TestMemoryBoundsTrap(t *testing.T) {
	p, err := asm.Assemble(".func main\nld.q r1, 0(rz)\nhalt\n")
	if err != nil {
		t.Fatal(err)
	}
	m := emu.New(p)
	if err := m.Run(); err == nil {
		t.Error("load from address 0 must trap (below the data base)")
	}
}

func TestFuelExhaustion(t *testing.T) {
	p, err := asm.Assemble(".func main\nloop:\nbr loop\n")
	if err != nil {
		t.Fatal(err)
	}
	m := emu.New(p)
	m.Fuel = 1000
	if err := m.Run(); err == nil {
		t.Error("infinite loop must exhaust fuel")
	}
}

func TestInstructionCounts(t *testing.T) {
	p, err := asm.Assemble(`
.func main
	lda r1, 0(rz)
loop:
	add r1, r1, #1
	cmplt r2, r1, #10
	bne r2, loop
	halt
`)
	if err != nil {
		t.Fatal(err)
	}
	prof := emu.NewProfiler(len(p.Ins), nil)
	m := emu.New(p)
	m.Sink = prof
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if prof.Counts[1] != 10 {
		t.Errorf("add executed %d times, want 10", prof.Counts[1])
	}
	if prof.Counts[0] != 1 {
		t.Errorf("init executed %d times, want 1", prof.Counts[0])
	}
	if prof.Counts[4] != 1 {
		t.Errorf("halt executed %d times, want 1", prof.Counts[4])
	}
	var sum int64
	for _, c := range prof.Counts {
		sum += c
	}
	if sum != m.Dyn {
		t.Errorf("counts sum to %d, machine retired %d", sum, m.Dyn)
	}
}

func TestTraceEvents(t *testing.T) {
	p, err := asm.Assemble(`
.data
buf: .space 16
.text
.func main
	lda r1, =buf
	lda r2, 99(rz)
	st.w r2, 4(r1)
	ld.w r3, 4(r1)
	halt
`)
	if err != nil {
		t.Fatal(err)
	}
	m := emu.New(p)
	var events collector
	m.Sink = &events
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if len(events.recs) != 5 {
		t.Fatalf("traced %d records, want 5", len(events.recs))
	}
	st := events.recs[2]
	if isa.Op(st.Op) != isa.OpST || st.Addr != p.DataBase+4 || st.Value != 99 || st.SrcB != 99 {
		t.Errorf("store record = %+v", st)
	}
	ld := events.recs[3]
	if isa.Op(ld.Op) != isa.OpLD || ld.Addr != p.DataBase+4 || ld.Value != 99 || ld.Flags != emu.RecWritesDest {
		t.Errorf("load record = %+v", ld)
	}
}

func TestEquivalenceDetectsOutputDifference(t *testing.T) {
	p1, _ := asm.Assemble(".func main\nlda r1, 1(rz)\nout.b r1\nhalt\n")
	p2, _ := asm.Assemble(".func main\nlda r1, 2(rz)\nout.b r1\nhalt\n")
	if err := emu.CheckEquivalence(p1, p2); err == nil {
		t.Error("differing outputs not detected")
	}
}

func TestEquivalenceDetectsMemoryDifference(t *testing.T) {
	p1, _ := asm.Assemble(".data\nb: .space 8\n.text\n.func main\nlda r1, =b\nlda r2, 1(rz)\nst.q r2, 0(r1)\nhalt\n")
	p2, _ := asm.Assemble(".data\nb: .space 8\n.text\n.func main\nlda r1, =b\nlda r2, 2(rz)\nst.q r2, 0(r1)\nhalt\n")
	if err := emu.CheckEquivalence(p1, p2); err == nil {
		t.Error("differing final memory not detected")
	}
}
