// Package emu executes OG64 programs functionally. It is the architectural
// reference model: the binary optimizer's equivalence checks, the value and
// basic-block profilers, and the trace-driven timing model (internal/uarch)
// all consume its retirement stream.
//
// The retirement stream is delivered in record batches: attach a Sink and
// ConsumeRecs is called with RecBatch columns that the dispatch loop
// writes directly into a buffer owned by the machine; Step is the same
// loop limited to one instruction. Memory images are pooled: New draws a
// scrubbed image and Release returns it, zeroing only the dirtied pages.
package emu

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"sync"

	"opgate/internal/isa"
	"opgate/internal/prog"
)

// DefaultFuel bounds execution length; workloads finish well below it.
const DefaultFuel = 200_000_000

// BatchSize is the capacity of the machine-owned record buffer: sinks see
// batches of at most this many records.
const BatchSize = 4096

// Sink receives the retirement stream as packed record batches. The
// batch's columns are owned by the machine and reused: consumers must not
// retain them past the call (copy rows out if they need to).
type Sink interface {
	ConsumeRecs(batch RecBatch)
}

// RecFunc adapts a function to the Sink interface, so one-off record
// consumers stay inline.
type RecFunc func(RecBatch)

// ConsumeRecs implements Sink.
func (f RecFunc) ConsumeRecs(b RecBatch) { f(b) }

// decIns is the predecoded form of one static instruction: operand
// registers, the immediate flag, width-derived constants and the record
// metadata (opcode, width, writes-dest) are resolved once so the dispatch
// loop does no per-instruction re-derivation.
type decIns struct {
	imm    int64 // immediate operand / memory offset
	zmask  int64 // zero-extension mask for the opcode width (-1 for W64)
	target int32 // branch/call target
	op     isa.Op
	rd     uint8
	ra     uint8
	rb     uint8
	shift  uint8 // 64 - width bits: sign-extension shift for the opcode width
	wbytes uint8 // width in bytes (the isa.Width value)
	flags  uint8 // RecWritesDest when the instruction writes a register
	hasImm bool
}

// Machine is one execution context over a program.
type Machine struct {
	P      *prog.Program
	Regs   [isa.NumRegs]int64
	Mem    []byte
	PC     int
	Halted bool
	Output []byte

	// Fuel is the remaining dynamic instruction budget.
	Fuel int64
	// Dyn is the number of retired instructions.
	Dyn int64

	// Sink receives every retired instruction, in record batches, when
	// non-nil.
	Sink Sink

	dec    []decIns      // predecoded program, built lazily on first run
	decSrc *prog.Program // program the predecode was built from
	img    *image        // pooled memory image backing Mem; nil once released
}

// pageShift/pageBytes size the dirty-page granularity: workload memory
// images are large (the data base sits above 2^32 and the stack at the
// top of an 8MB arena) but runs touch only a few pages, so Reset and
// Release clear the written pages instead of the whole image. All
// mutation goes through the machine (executed stores, StoreBytes, Reset);
// writing Mem directly would bypass the tracking and leak into the next
// machine built on the image.
const (
	pageShift = 12
	pageBytes = 1 << pageShift
)

// image is a pooled memory image with its dirty-page bitmap and the
// record buffer the dispatch loop fills. A pooled image is scrubbed: all
// of mem is zero and no page is marked dirty.
type image struct {
	mem   []byte
	dirty []uint64 // bitmap of written pages
	recs  *recBuf  // allocated on the first run with a Sink attached
}

// recBuf is the machine-owned record buffer: one fixed-size array per
// RecBatch column, so the dispatch loop's stores need no bounds checks.
type recBuf struct {
	idx, next               [BatchSize]int32
	op, wbytes, flags       [BatchSize]uint8
	addr, value, srcA, srcB [BatchSize]int64
}

// batch returns the first n buffered records as a RecBatch view.
func (r *recBuf) batch(n int) RecBatch {
	return RecBatch{
		Idx: r.idx[:n], Next: r.next[:n],
		Op: r.op[:n], WBytes: r.wbytes[:n], Flags: r.flags[:n],
		Addr: r.addr[:n], Value: r.value[:n], SrcA: r.srcA[:n], SrcB: r.srcB[:n],
	}
}

// pool holds scrubbed images by memory size: never more of a size than
// machines of that size were once live together.
var pool = struct {
	sync.Mutex
	free map[int64][]*image
}{free: map[int64][]*image{}}

// acquire returns a scrubbed image of size bytes, from the pool when one
// is free.
func acquire(size int64) *image {
	pool.Lock()
	if free := pool.free[size]; len(free) > 0 {
		img := free[len(free)-1]
		free[len(free)-1] = nil
		pool.free[size] = free[:len(free)-1]
		pool.Unlock()
		return img
	}
	pool.Unlock()
	pages := (size + pageBytes - 1) / pageBytes
	return &image{mem: make([]byte, size), dirty: make([]uint64, (pages+63)/64)}
}

// scrub zeroes the pages written since the image was last scrubbed.
func (img *image) scrub() {
	mem := img.mem
	for wi, w := range img.dirty {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			w &^= 1 << uint(b)
			start := (wi*64 + b) << pageShift
			clear(mem[start:min(start+pageBytes, len(mem))])
		}
		img.dirty[wi] = 0
	}
}

// markDirty records that [off, off+n) was written.
func markDirty(dirty []uint64, off, n int64) {
	p0 := uint64(off) >> pageShift
	p1 := uint64(off+n-1) >> pageShift
	for p := p0; p <= p1; p++ {
		dirty[p>>6] |= 1 << (p & 63)
	}
}

// New creates a machine with the program's initial memory image, drawn
// from the pool. Release returns it; a machine never released only costs
// the pool one allocation.
func New(p *prog.Program) *Machine {
	m := &Machine{P: p, Fuel: DefaultFuel}
	m.Reset()
	return m
}

// Release scrubs the machine's memory image and returns it to the pool.
// Mem is nil afterwards; Reset re-acquires an image. Releasing twice is a
// no-op.
func (m *Machine) Release() {
	img := m.img
	if img == nil {
		return
	}
	m.img, m.Mem = nil, nil
	img.scrub()
	size := int64(len(img.mem))
	pool.Lock()
	pool.free[size] = append(pool.free[size], img)
	pool.Unlock()
}

// Reset restores the initial architectural state. Data memory is a flat
// array backing the virtual range [DataBase, DataBase+MemSize); keeping the
// base above 2^32 makes addresses realistic 5-byte values (Fig. 12) while
// the array stays small. The global pointer is pinned to DataBase and the
// stack pointer starts at the top of memory.
func (m *Machine) Reset() {
	if m.img != nil && int64(len(m.img.mem)) == m.P.MemSize {
		m.img.scrub()
	} else {
		m.Release() // a program of another size, or none held
		m.img = acquire(m.P.MemSize)
	}
	m.Mem = m.img.mem
	copy(m.Mem, m.P.Data)
	if len(m.P.Data) > 0 {
		markDirty(m.img.dirty, 0, int64(len(m.P.Data)))
	}
	m.Regs = [isa.NumRegs]int64{}
	m.Regs[prog.RegGP] = m.P.DataBase
	m.Regs[prog.RegSP] = m.P.DataBase + m.P.MemSize
	entry := m.P.Funcs[m.P.Entry]
	m.PC = entry.Start
	m.Halted = false
	m.Output = m.Output[:0]
	m.Dyn = 0
}

// predecode builds the dispatch loop's flat form of p, including the
// record metadata every retirement of each instruction carries.
func predecode(p *prog.Program) []decIns {
	dec := make([]decIns, len(p.Ins))
	for i := range p.Ins {
		in := &p.Ins[i]
		d := &dec[i]
		d.op = in.Op
		d.rd = uint8(in.Rd)
		d.ra = uint8(in.Ra)
		d.rb = uint8(in.Rb)
		d.imm = in.Imm
		d.hasImm = in.HasImm
		d.target = int32(in.Target)
		d.shift = uint8(64 - in.Width.Bits())
		d.wbytes = uint8(in.Width)
		if _, ok := in.Dest(); ok {
			d.flags = RecWritesDest
		}
		if in.Width == isa.W64 {
			d.zmask = -1
		} else {
			d.zmask = int64(1)<<uint(in.Width.Bits()) - 1
		}
	}
	return dec
}

// Run executes until HALT, RET from the entry function, or fuel
// exhaustion; it returns an error on traps (bad memory, bad PC, fuel).
func (m *Machine) Run() error { return m.run(-1) }

// Step executes one instruction. Its record (when a Sink is attached) is
// delivered immediately as a one-record batch.
func (m *Machine) Step() error { return m.run(1) }

// run is the dispatch loop shared by Run and Step: it executes up to limit
// instructions (limit < 0 means until halt/trap/fuel), writing retirement
// records into the image's buffer and flushing them to the Sink in
// batches.
func (m *Machine) run(limit int64) error {
	if m.Halted || limit == 0 {
		return nil
	}
	if m.img == nil {
		return fmt.Errorf("emu: run of a released machine (Reset re-acquires memory)")
	}
	if m.decSrc != m.P || len(m.dec) != len(m.P.Ins) {
		// Keyed on the program pointer: swapping m.P takes effect on the
		// next run; mutating m.P.Ins in place between runs is not supported.
		m.dec, m.decSrc = predecode(m.P), m.P
	}
	var out *recBuf
	if m.Sink != nil {
		if m.img.recs == nil {
			m.img.recs = new(recBuf)
		}
		out = m.img.recs
	}

	dec := m.dec
	regs := &m.Regs
	mem := m.Mem
	dirty := m.img.dirty
	base := m.P.DataBase
	pc := m.PC
	halted := false
	n := 0 // buffered records

	budget := m.Fuel
	if limit >= 0 && limit < budget {
		budget = limit
	}

	var executed int64
	var runErr error

loop:
	for executed < budget {
		if pc < 0 || pc >= len(dec) {
			runErr = fmt.Errorf("emu: pc %d outside program", pc)
			break
		}
		d := &dec[pc]
		idx := pc
		executed++

		ra := regs[d.ra&31]
		rb := d.imm
		if !d.hasImm {
			rb = regs[d.rb&31]
		}
		// The record's addr, second source and flags default here; the
		// cases that differ overwrite them.
		var addr int64
		srcB := rb
		flags := d.flags
		next := idx + 1
		var val int64

		switch d.op {
		case isa.OpLDA:
			// LDA carries a width like the other add-class ops, so that an
			// unsoundly narrowed constant/address materialisation is
			// observable in equivalence tests.
			sh := d.shift
			val = (ra + d.imm) << sh >> sh

		case isa.OpLD:
			addr = ra + d.imm
			off := addr - base
			nb := int64(d.wbytes)
			if off < 0 || off+nb > int64(len(mem)) {
				runErr = fmt.Errorf("emu: pc %d: load of %d bytes at %#x out of bounds", idx, nb, addr)
				break loop
			}
			switch d.wbytes {
			case 1:
				val = int64(mem[off]) // zero-extended, like Alpha LDBU
			case 2:
				val = int64(binary.LittleEndian.Uint16(mem[off:]))
			case 4:
				val = int64(int32(binary.LittleEndian.Uint32(mem[off:]))) // sign-extended, like Alpha LDL
			default:
				val = int64(binary.LittleEndian.Uint64(mem[off:]))
			}

		case isa.OpST:
			addr = ra + d.imm
			data := regs[d.rb&31]
			off := addr - base
			nb := int64(d.wbytes)
			if off < 0 || off+nb > int64(len(mem)) {
				runErr = fmt.Errorf("emu: pc %d: store of %d bytes at %#x out of bounds", idx, nb, addr)
				break loop
			}
			srcB = data
			switch d.wbytes {
			case 1:
				mem[off] = byte(data)
			case 2:
				binary.LittleEndian.PutUint16(mem[off:], uint16(data))
			case 4:
				binary.LittleEndian.PutUint32(mem[off:], uint32(data))
			default:
				binary.LittleEndian.PutUint64(mem[off:], uint64(data))
			}
			p0 := uint64(off) >> pageShift
			dirty[p0>>6] |= 1 << (p0 & 63)
			if p1 := uint64(off+nb-1) >> pageShift; p1 != p0 {
				dirty[p1>>6] |= 1 << (p1 & 63)
			}
			val = data & d.zmask

		case isa.OpADD:
			sh := d.shift
			val = (ra + rb) << sh >> sh
		case isa.OpSUB:
			sh := d.shift
			val = (ra - rb) << sh >> sh
		case isa.OpMUL:
			sh := d.shift
			val = (ra * rb) << sh >> sh
		case isa.OpAND:
			sh := d.shift
			val = (ra & rb) << sh >> sh
		case isa.OpOR:
			sh := d.shift
			val = (ra | rb) << sh >> sh
		case isa.OpXOR:
			sh := d.shift
			val = (ra ^ rb) << sh >> sh
		case isa.OpBIC:
			sh := d.shift
			val = (ra &^ rb) << sh >> sh
		case isa.OpSLL:
			sh := d.shift
			val = (ra << uint(rb&63)) << sh >> sh
		case isa.OpSRL:
			sh := d.shift
			val = int64(uint64(ra)>>uint(rb&63)) << sh >> sh
		case isa.OpSRA:
			sh := d.shift
			val = (ra >> uint(rb&63)) << sh >> sh

		case isa.OpMSKL:
			val = ra & d.zmask
		case isa.OpEXTB:
			val = (ra >> uint(8*(rb&7))) & 0xFF
		case isa.OpSEXT:
			sh := d.shift
			val = ra << sh >> sh

		case isa.OpCMPEQ:
			sh := d.shift
			val = b2i(ra<<sh>>sh == rb<<sh>>sh)
		case isa.OpCMPLT:
			sh := d.shift
			val = b2i(ra<<sh>>sh < rb<<sh>>sh)
		case isa.OpCMPLE:
			sh := d.shift
			val = b2i(ra<<sh>>sh <= rb<<sh>>sh)
		case isa.OpCMPULT:
			sh := d.shift
			val = b2i(uint64(ra<<sh>>sh) < uint64(rb<<sh>>sh))
		case isa.OpCMPULE:
			sh := d.shift
			val = b2i(uint64(ra<<sh>>sh) <= uint64(rb<<sh>>sh))

		case isa.OpCMOVEQ, isa.OpCMOVNE, isa.OpCMOVLT, isa.OpCMOVGE:
			cond := false
			switch d.op {
			case isa.OpCMOVEQ:
				cond = ra == 0
			case isa.OpCMOVNE:
				cond = ra != 0
			case isa.OpCMOVLT:
				cond = ra < 0
			case isa.OpCMOVGE:
				cond = ra >= 0
			}
			if cond {
				sh := d.shift
				val = rb << sh >> sh
			} else {
				val = regs[d.rd&31] // old destination value, preserved
			}

		case isa.OpBR:
			next = int(d.target)
			flags |= RecTaken
		case isa.OpBEQ, isa.OpBNE, isa.OpBLT, isa.OpBGE, isa.OpBGT, isa.OpBLE:
			taken := false
			switch d.op {
			case isa.OpBEQ:
				taken = ra == 0
			case isa.OpBNE:
				taken = ra != 0
			case isa.OpBLT:
				taken = ra < 0
			case isa.OpBGE:
				taken = ra >= 0
			case isa.OpBGT:
				taken = ra > 0
			case isa.OpBLE:
				taken = ra <= 0
			}
			if taken {
				next = int(d.target)
				flags |= RecTaken
			}
		case isa.OpJSR:
			val = int64(idx + 1)
			next = int(d.target)
			flags |= RecTaken
		case isa.OpRET:
			next = int(ra)
			flags |= RecTaken
		case isa.OpHALT:
			halted = true
			next = idx
		case isa.OpOUT:
			val = ra & d.zmask
			for i := 0; i < int(d.wbytes); i++ {
				m.Output = append(m.Output, byte(uint64(val)>>(8*uint(i))))
			}

		default:
			runErr = fmt.Errorf("emu: pc %d: unimplemented opcode %v", idx, d.op)
			break loop
		}

		if flags&RecWritesDest != 0 {
			// Static: a not-taken CMOV writes back its old value.
			regs[d.rd&31] = val
		}
		if out != nil {
			// n < BatchSize always; the mask lets the compiler drop the
			// column stores' bounds checks.
			i := n & (BatchSize - 1)
			out.idx[i] = int32(idx)
			out.next[i] = int32(next)
			out.op[i] = uint8(d.op)
			out.wbytes[i] = d.wbytes
			out.flags[i] = flags
			out.addr[i] = addr
			out.value[i] = val
			out.srcA[i] = ra
			out.srcB[i] = srcB
			n++
			if n == BatchSize {
				m.Sink.ConsumeRecs(out.batch(n))
				n = 0
			}
		}
		pc = next
		if halted {
			break
		}
	}

	// Commit architectural state and flush the retired records. An
	// instruction that trapped mid-execution (bad memory, bad opcode)
	// consumed fuel and counted towards Dyn but produced no record; an
	// out-of-range PC traps before any of that.
	m.PC = pc
	m.Dyn += executed
	m.Fuel -= executed
	m.Halted = halted
	if n > 0 {
		m.Sink.ConsumeRecs(out.batch(n))
	}
	if runErr != nil {
		return runErr
	}
	if !halted && (limit < 0 || executed < limit) {
		return fmt.Errorf("emu: out of fuel at pc %d (infinite loop?)", pc)
	}
	return nil
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// StoreBytes pokes a memory region by virtual address before a run
// (workload inputs).
func (m *Machine) StoreBytes(addr int64, data []byte) error {
	off := addr - m.P.DataBase
	if off < 0 || off+int64(len(data)) > int64(len(m.Mem)) {
		return fmt.Errorf("emu: write of %d bytes at %#x out of bounds", len(data), addr)
	}
	copy(m.Mem[off:], data)
	if len(data) > 0 {
		markDirty(m.img.dirty, off, int64(len(data)))
	}
	return nil
}
