// Package isa defines OG64, a 64-bit Alpha-like RISC instruction set with
// width-annotated opcodes, used throughout the operand-gating reproduction.
//
// OG64 mirrors the operand model of the paper's enhanced Alpha ISA: 32
// integer registers of 64 bits (r31 hardwired to zero), two's-complement
// wraparound arithmetic, and opcodes that carry an operand width of 8, 16,
// 32 or 64 bits. Loads and stores exist at every width; ALU opcodes may be
// restricted to a subset of widths by an OpcodeSet (Section 4.3 of the
// paper discusses exactly which narrow opcodes are worth encoding).
package isa

import "fmt"

// NumRegs is the number of architectural integer registers.
const NumRegs = 32

// ZeroReg is hardwired to zero, like Alpha's r31.
const ZeroReg = 31

// Reg names an architectural register.
type Reg uint8

// String returns the assembly name of the register.
func (r Reg) String() string {
	if r == ZeroReg {
		return "rz"
	}
	return fmt.Sprintf("r%d", r)
}

// Width is an operand width carried by an opcode.
type Width uint8

// Operand widths. The numeric value is the width in bytes.
const (
	W8  Width = 1
	W16 Width = 2
	W32 Width = 4
	W64 Width = 8
)

// Widths lists all operand widths from narrowest to widest.
var Widths = [4]Width{W8, W16, W32, W64}

// Bits returns the width in bits.
func (w Width) Bits() int { return int(w) * 8 }

// Bytes returns the width in bytes.
func (w Width) Bytes() int { return int(w) }

// String returns the assembly suffix for the width.
func (w Width) String() string {
	switch w {
	case W8:
		return "b"
	case W16:
		return "h"
	case W32:
		return "w"
	case W64:
		return "q"
	}
	return fmt.Sprintf("Width(%d)", uint8(w))
}

// WidthForBytes returns the narrowest Width that spans n bytes.
func WidthForBytes(n int) Width {
	switch {
	case n <= 1:
		return W8
	case n <= 2:
		return W16
	case n <= 4:
		return W32
	default:
		return W64
	}
}

// ParseWidth converts an assembly suffix ("b","h","w","q") to a Width.
func ParseWidth(s string) (Width, bool) {
	switch s {
	case "b":
		return W8, true
	case "h":
		return W16, true
	case "w":
		return W32, true
	case "q":
		return W64, true
	}
	return 0, false
}

// Op is an OG64 opcode (without its width annotation).
type Op uint8

// Opcodes. Arithmetic/logical ops take rd, ra, rb-or-imm. Compare ops write
// 0 or 1. CMOV copies ra to rd when the condition on rc holds. MSKL zeroes
// all but the low bytes; EXTB extracts one byte; SEXT sign-extends from the
// operand width. Branches compare a register against zero, like Alpha.
const (
	OpInvalid Op = iota

	// Constant / address formation.
	OpLDA // rd = ra + imm (64-bit address/constant arithmetic)

	// Memory.
	OpLD // rd = mem[ra+imm], zero-extended for W8/W16, sign for W32 (Alpha LDL), full for W64
	OpST // mem[ra+imm] = rb, low Width bytes

	// Integer arithmetic.
	OpADD
	OpSUB
	OpMUL

	// Logical.
	OpAND
	OpOR
	OpXOR
	OpBIC // rd = ra &^ rb

	// Shifts. Shift amount is rb (or imm) masked to 6 bits.
	OpSLL
	OpSRL
	OpSRA

	// Byte manipulation (Alpha MSK/EXT family).
	OpMSKL // rd = ra & low-Width-bytes mask (keep low bytes, zero rest)
	OpEXTB // rd = byte (rb&7) of ra, zero-extended
	OpSEXT // rd = ra sign-extended from Width

	// Compares; result is 0 or 1.
	OpCMPEQ
	OpCMPLT  // signed
	OpCMPLE  // signed
	OpCMPULT // unsigned
	OpCMPULE // unsigned

	// Conditional moves: rd = ra if cond(rb) else rd.
	OpCMOVEQ
	OpCMOVNE
	OpCMOVLT
	OpCMOVGE

	// Control flow. Branches test ra against zero; target is an
	// instruction index (resolved from labels by the assembler).
	OpBR  // unconditional
	OpBEQ // branch if ra == 0
	OpBNE
	OpBLT
	OpBGE
	OpBGT
	OpBLE
	OpJSR  // call: link register rd = return index, jump to target
	OpRET  // return to address in ra
	OpHALT // stop execution

	// Diagnostics: append the low Width bytes of ra to the program's
	// output buffer. Output is part of observable behaviour, so the
	// equivalence checker compares it; it also gives workloads a way to
	// produce results that dead-code elimination must preserve.
	OpOUT

	numOps // sentinel
)

// NumOps is the number of defined opcodes (for table sizing).
const NumOps = int(numOps)

var opNames = [...]string{
	OpInvalid: "invalid",
	OpLDA:     "lda",
	OpLD:      "ld",
	OpST:      "st",
	OpADD:     "add",
	OpSUB:     "sub",
	OpMUL:     "mul",
	OpAND:     "and",
	OpOR:      "or",
	OpXOR:     "xor",
	OpBIC:     "bic",
	OpSLL:     "sll",
	OpSRL:     "srl",
	OpSRA:     "sra",
	OpMSKL:    "mskl",
	OpEXTB:    "extb",
	OpSEXT:    "sext",
	OpCMPEQ:   "cmpeq",
	OpCMPLT:   "cmplt",
	OpCMPLE:   "cmple",
	OpCMPULT:  "cmpult",
	OpCMPULE:  "cmpule",
	OpCMOVEQ:  "cmoveq",
	OpCMOVNE:  "cmovne",
	OpCMOVLT:  "cmovlt",
	OpCMOVGE:  "cmovge",
	OpBR:      "br",
	OpBEQ:     "beq",
	OpBNE:     "bne",
	OpBLT:     "blt",
	OpBGE:     "bge",
	OpBGT:     "bgt",
	OpBLE:     "ble",
	OpJSR:     "jsr",
	OpRET:     "ret",
	OpHALT:    "halt",
	OpOUT:     "out",
}

// String returns the base mnemonic of the opcode.
func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("Op(%d)", uint8(o))
}

// ParseOp converts a base mnemonic to an Op.
func ParseOp(s string) (Op, bool) {
	for op, name := range opNames {
		if name == s && Op(op) != OpInvalid {
			return Op(op), true
		}
	}
	return OpInvalid, false
}

// Class groups opcodes by the paper's operation-type taxonomy (Table 3)
// and by functional-unit requirements.
type Class uint8

// Operation classes.
const (
	ClassNone  Class = iota
	ClassAdd         // ADD, LDA
	ClassSub         // SUB
	ClassMul         // MUL
	ClassLogic       // AND, OR, XOR, BIC
	ClassShift       // SLL, SRL, SRA
	ClassMask        // MSKL, EXTB, SEXT
	ClassCmp         // CMPxx
	ClassCmov        // CMOVxx
	ClassLoad
	ClassStore
	ClassBranch // conditional + unconditional + JSR/RET
	ClassOther  // HALT, OUT
)

// NumClasses is the number of operation classes (for table sizing).
const NumClasses = int(ClassOther) + 1

var classNames = [...]string{
	ClassNone:   "none",
	ClassAdd:    "ADD",
	ClassSub:    "SUB",
	ClassMul:    "MUL",
	ClassLogic:  "LOGIC",
	ClassShift:  "SHIFT",
	ClassMask:   "MSK",
	ClassCmp:    "CMP",
	ClassCmov:   "CMOV",
	ClassLoad:   "LOAD",
	ClassStore:  "STORE",
	ClassBranch: "BRANCH",
	ClassOther:  "OTHER",
}

// String returns the table-3-style class name.
func (c Class) String() string {
	if int(c) < len(classNames) {
		return classNames[c]
	}
	return fmt.Sprintf("Class(%d)", uint8(c))
}

// ClassOf returns the operation class of an opcode.
func ClassOf(op Op) Class {
	switch op {
	case OpADD, OpLDA:
		return ClassAdd
	case OpSUB:
		return ClassSub
	case OpMUL:
		return ClassMul
	case OpAND, OpOR, OpXOR, OpBIC:
		return ClassLogic
	case OpSLL, OpSRL, OpSRA:
		return ClassShift
	case OpMSKL, OpEXTB, OpSEXT:
		return ClassMask
	case OpCMPEQ, OpCMPLT, OpCMPLE, OpCMPULT, OpCMPULE:
		return ClassCmp
	case OpCMOVEQ, OpCMOVNE, OpCMOVLT, OpCMOVGE:
		return ClassCmov
	case OpLD:
		return ClassLoad
	case OpST:
		return ClassStore
	case OpBR, OpBEQ, OpBNE, OpBLT, OpBGE, OpBGT, OpBLE, OpJSR, OpRET:
		return ClassBranch
	case OpHALT, OpOUT:
		return ClassOther
	}
	return ClassNone
}

// IsBranch reports whether op redirects control flow.
func IsBranch(op Op) bool { return ClassOf(op) == ClassBranch }

// IsCondBranch reports whether op is a conditional branch.
func IsCondBranch(op Op) bool {
	switch op {
	case OpBEQ, OpBNE, OpBLT, OpBGE, OpBGT, OpBLE:
		return true
	}
	return false
}

// IsMem reports whether op accesses data memory.
func IsMem(op Op) bool { return op == OpLD || op == OpST }

// HasDest reports whether op writes a destination register.
func HasDest(op Op) bool {
	switch op {
	case OpST, OpBR, OpBEQ, OpBNE, OpBLT, OpBGE, OpBGT, OpBLE, OpRET, OpHALT, OpOUT:
		return false
	}
	return op != OpInvalid
}

// Instruction is one decoded OG64 instruction. Imm is used instead of Rb
// when HasImm is set. Target is an instruction index for branches.
type Instruction struct {
	Op     Op
	Width  Width
	Rd     Reg
	Ra     Reg
	Rb     Reg
	Imm    int64
	HasImm bool
	Target int // branch/call target (instruction index)
}

// Uses returns the registers read by the instruction. The second return
// value gives how many entries of the array are valid.
//
// Conditional moves read three registers: the condition (Ra), the source
// (Rb or the immediate), and the old destination value (Rd), which is
// preserved when the move does not fire.
func (in *Instruction) Uses() ([3]Reg, int) {
	var u [3]Reg
	switch in.Op {
	case OpLDA:
		u[0] = in.Ra
		return u, 1
	case OpLD:
		u[0] = in.Ra
		return u, 1
	case OpST:
		u[0] = in.Ra
		u[1] = in.Rb
		return u, 2
	case OpBR, OpJSR, OpHALT:
		return u, 0
	case OpBEQ, OpBNE, OpBLT, OpBGE, OpBGT, OpBLE, OpRET, OpOUT:
		u[0] = in.Ra
		return u, 1
	case OpSEXT, OpMSKL:
		u[0] = in.Ra
		return u, 1
	case OpCMOVEQ, OpCMOVNE, OpCMOVLT, OpCMOVGE:
		u[0] = in.Ra
		if in.HasImm {
			u[1] = in.Rd
			return u, 2
		}
		u[1] = in.Rb
		u[2] = in.Rd
		return u, 3
	case OpInvalid:
		return u, 0
	}
	// Generic three-operand ALU shape.
	u[0] = in.Ra
	if in.HasImm {
		return u, 1
	}
	u[1] = in.Rb
	return u, 2
}

// Dest returns the destination register and whether one exists.
func (in *Instruction) Dest() (Reg, bool) {
	if !HasDest(in.Op) {
		return 0, false
	}
	if in.Rd == ZeroReg {
		return 0, false // writes to rz are discarded
	}
	return in.Rd, true
}

// String disassembles the instruction (without label resolution).
func (in *Instruction) String() string {
	suffix := ""
	if widthMatters(in.Op) {
		suffix = "." + in.Width.String()
	}
	switch in.Op {
	case OpHALT:
		return "halt"
	case OpRET:
		return fmt.Sprintf("ret %s", in.Ra)
	case OpBR:
		return fmt.Sprintf("br @%d", in.Target)
	case OpJSR:
		return fmt.Sprintf("jsr %s, @%d", in.Rd, in.Target)
	case OpBEQ, OpBNE, OpBLT, OpBGE, OpBGT, OpBLE:
		return fmt.Sprintf("%s %s, @%d", in.Op, in.Ra, in.Target)
	case OpLDA:
		return fmt.Sprintf("lda %s, %d(%s)", in.Rd, in.Imm, in.Ra)
	case OpLD:
		return fmt.Sprintf("ld%s %s, %d(%s)", suffix, in.Rd, in.Imm, in.Ra)
	case OpST:
		return fmt.Sprintf("st%s %s, %d(%s)", suffix, in.Rb, in.Imm, in.Ra)
	case OpOUT:
		return fmt.Sprintf("out%s %s", suffix, in.Ra)
	case OpSEXT:
		return fmt.Sprintf("sext%s %s, %s", suffix, in.Rd, in.Ra)
	case OpMSKL:
		return fmt.Sprintf("mskl%s %s, %s", suffix, in.Rd, in.Ra)
	}
	if in.HasImm {
		return fmt.Sprintf("%s%s %s, %s, #%d", in.Op, suffix, in.Rd, in.Ra, in.Imm)
	}
	return fmt.Sprintf("%s%s %s, %s, %s", in.Op, suffix, in.Rd, in.Ra, in.Rb)
}

// widthMatters reports whether the opcode's behaviour or encoding carries a
// width annotation in assembly.
func widthMatters(op Op) bool {
	switch op {
	case OpLDA, OpBR, OpBEQ, OpBNE, OpBLT, OpBGE, OpBGT, OpBLE, OpJSR, OpRET, OpHALT:
		return false
	}
	return op != OpInvalid
}

// Latency returns the execution latency in cycles for the functional-unit
// stage of the pipeline model.
func Latency(op Op) int {
	switch ClassOf(op) {
	case ClassMul:
		return 7
	case ClassLoad, ClassStore:
		return 1 // plus cache access time, modelled separately
	default:
		return 1
	}
}
