package isa

// OpcodeSet describes which operand widths the ISA encodes for each
// operation class. Section 4.3 of the paper analyses which narrow opcodes
// are worth adding to the Alpha ISA: memory operations already exist at all
// widths; MUL stays 64-bit only; ADD gains byte and halfword forms; SUB
// gains a byte form; logical operations, shifts, conditional moves and
// compares gain byte and word forms.
//
// When a width is not available, value range propagation must fall back to
// the next wider encodable width (the paper's rule: "whenever a wider
// instruction is used, the values read at run time contain significant data
// for all the input bytes").
type OpcodeSet struct {
	allowed [NumClasses][4]bool // class × width index (0=W8..3=W64)
}

func widthIndex(w Width) int {
	switch w {
	case W8:
		return 0
	case W16:
		return 1
	case W32:
		return 2
	default:
		return 3
	}
}

// Supports reports whether the class can be encoded at width w.
func (s *OpcodeSet) Supports(class Class, w Width) bool {
	return s.allowed[class][widthIndex(w)]
}

// Narrowest returns the narrowest encodable width >= want for the class.
// The widest width is always encodable.
func (s *OpcodeSet) Narrowest(class Class, want Width) Width {
	for _, w := range Widths {
		if w < want {
			continue
		}
		if s.Supports(class, w) {
			return w
		}
	}
	return W64
}

func (s *OpcodeSet) allow(class Class, ws ...Width) {
	for _, w := range ws {
		s.allowed[class][widthIndex(w)] = true
	}
}

// FullOpcodeSet returns an OpcodeSet with every class encodable at every
// width — an idealised ISA used for limit studies.
func FullOpcodeSet() *OpcodeSet {
	s := &OpcodeSet{}
	for c := ClassNone; c < Class(NumClasses); c++ {
		s.allow(c, W8, W16, W32, W64)
	}
	return s
}

// PaperOpcodeSet returns the extension set chosen in Section 4.3:
//
//   - loads/stores: all widths (already in the Alpha ISA)
//   - ADD: byte, halfword, word, doubleword
//   - SUB: byte, word, doubleword (no halfword — too rare)
//   - logical, shift, compare, cmov: byte, word, doubleword
//   - MSK/EXT family: all widths (already in the ISA)
//   - MUL: doubleword only
func PaperOpcodeSet() *OpcodeSet {
	s := &OpcodeSet{}
	s.allow(ClassLoad, W8, W16, W32, W64)
	s.allow(ClassStore, W8, W16, W32, W64)
	s.allow(ClassAdd, W8, W16, W32, W64)
	s.allow(ClassSub, W8, W32, W64)
	s.allow(ClassLogic, W8, W32, W64)
	s.allow(ClassShift, W8, W32, W64)
	s.allow(ClassCmp, W8, W32, W64)
	s.allow(ClassCmov, W8, W32, W64)
	s.allow(ClassMask, W8, W16, W32, W64)
	s.allow(ClassMul, W64)
	s.allow(ClassBranch, W64)
	s.allow(ClassOther, W8, W16, W32, W64)
	s.allow(ClassNone, W64)
	return s
}

// BaseOpcodeSet returns the unextended ISA: only memory operations and the
// mask family are width-annotated; every computational opcode is 64-bit.
// This models the pre-extension Alpha and is the "non" baseline of Fig. 7.
func BaseOpcodeSet() *OpcodeSet {
	s := &OpcodeSet{}
	s.allow(ClassLoad, W8, W16, W32, W64)
	s.allow(ClassStore, W8, W16, W32, W64)
	s.allow(ClassMask, W8, W16, W32, W64)
	for _, c := range []Class{ClassAdd, ClassSub, ClassMul, ClassLogic,
		ClassShift, ClassCmp, ClassCmov, ClassBranch, ClassOther, ClassNone} {
		s.allow(c, W64)
	}
	return s
}
