package emu

import (
	"errors"
	"fmt"

	"opgate/internal/prog"
)

// This file is the trace-capture/replay layer: a retirement stream is
// recorded once into a compact packed form and then replayed any number of
// times — into Event sinks at memcpy-like speed, or as struct-of-arrays
// record batches that carry the opcode and operand width inline so
// consumers never chase *isa.Instruction per event.
//
// Layout: records are stored column-wise (struct of arrays) in fixed-size
// chunks of TraceChunkEvents events. One event costs recBytes (43) bytes:
// two int32s (static index, next index), three bytes (op, width in bytes,
// flags), and four int64s (addr, value, srcA, srcB). A recorder refuses to
// grow past its byte budget (DefaultTraceBudget unless overridden): the
// capture is dropped, Trace() reports the overflow, and callers fall back
// to live emulation — a trace is an accelerator, never a correctness
// dependency.
//
// Invariant: Trace.Replay must deliver the exact Event stream of the live
// run it captured — same values in every field, same batching shape — so
// any Sink can consume a replay in place of an emulation without
// observable difference. Record consumers (the timing model among them)
// read the packed rows directly through Records.

// TraceChunkEvents is the number of events per packed-trace chunk
// (a multiple of BatchSize, so replay batch boundaries match a live run).
const TraceChunkEvents = 1 << 15

// recBytes is the packed per-event footprint: idx(4) + next(4) + op(1) +
// width(1) + flags(1) + addr/value/srcA/srcB (4×8).
const recBytes = 4 + 4 + 1 + 1 + 1 + 4*8

// DefaultTraceBudget caps one recorded trace at 64 MiB (~1.6M events),
// comfortably above the largest suite workload (~28 MB) while bounding a
// runaway capture to a few chunks' worth of error latency.
const DefaultTraceBudget = 64 << 20

// Record flag bits.
const (
	// RecTaken marks a taken branch (Event.Taken).
	RecTaken = 1 << 0
	// RecWritesDest marks an architectural destination write (the
	// instruction has a destination and it is not the zero register),
	// folded in so consumers need not re-derive it from the opcode.
	RecWritesDest = 1 << 1
)

// RecBatch is a struct-of-arrays view of consecutive packed records. All
// slices share one length; entry i describes the i-th retired instruction
// of the batch. Op and WBytes duplicate the static instruction's opcode
// and operand width in bytes, so record consumers (width histograms, the
// TNV profiler, power accounting) never dereference *isa.Instruction.
type RecBatch struct {
	Idx    []int32 // static instruction index
	Next   []int32 // index of the next instruction executed
	Op     []uint8 // isa.Op
	WBytes []uint8 // operand width in bytes (isa.Width value)
	Flags  []uint8 // RecTaken | RecWritesDest
	Addr   []int64 // effective address (loads/stores)
	Value  []int64 // result value
	SrcA   []int64 // first source operand
	SrcB   []int64 // second source operand / store data
}

// Len returns the number of records in the batch.
func (b *RecBatch) Len() int { return len(b.Idx) }

// slice returns the sub-batch [lo, hi).
func (b *RecBatch) slice(lo, hi int) RecBatch {
	return RecBatch{
		Idx: b.Idx[lo:hi], Next: b.Next[lo:hi],
		Op: b.Op[lo:hi], WBytes: b.WBytes[lo:hi], Flags: b.Flags[lo:hi],
		Addr: b.Addr[lo:hi], Value: b.Value[lo:hi],
		SrcA: b.SrcA[lo:hi], SrcB: b.SrcB[lo:hi],
	}
}

// newRecBatch allocates a batch with n (zeroed) records; packRecs fills
// them in place.
func newRecBatch(n int) RecBatch {
	return RecBatch{
		Idx: make([]int32, n), Next: make([]int32, n),
		Op: make([]uint8, n), WBytes: make([]uint8, n), Flags: make([]uint8, n),
		Addr: make([]int64, n), Value: make([]int64, n),
		SrcA: make([]int64, n), SrcB: make([]int64, n),
	}
}

// packRecs packs events column-wise into b starting at offset off and
// returns how many fit (bulk indexed stores — this is the capture hot
// loop, so no per-event slice-header updates).
func packRecs(b *RecBatch, off int, batch []Event, meta []recMeta) int {
	n := len(b.Idx) - off
	if len(batch) < n {
		n = len(batch)
	}
	idxs := b.Idx[off : off+n]
	nexts := b.Next[off : off+n]
	ops := b.Op[off : off+n]
	wbs := b.WBytes[off : off+n]
	flags := b.Flags[off : off+n]
	addrs := b.Addr[off : off+n]
	values := b.Value[off : off+n]
	srcAs := b.SrcA[off : off+n]
	srcBs := b.SrcB[off : off+n]
	for i := range idxs {
		ev := &batch[i]
		m := meta[ev.Idx]
		idxs[i] = int32(ev.Idx)
		nexts[i] = int32(ev.Next)
		ops[i] = m.op
		wbs[i] = m.wbytes
		fl := m.flags
		if ev.Taken {
			fl |= RecTaken
		}
		flags[i] = fl
		addrs[i] = ev.Addr
		values[i] = ev.Value
		srcAs[i] = ev.SrcA
		srcBs[i] = ev.SrcB
	}
	return n
}

// RecSink consumes packed record batches. The batch's backing arrays may
// be owned by a live packer and reused; consumers must not retain them.
type RecSink interface {
	ConsumeRecs(batch RecBatch)
}

// RecFunc adapts a function to the RecSink interface, so one-off record
// consumers stay inline.
type RecFunc func(RecBatch)

// ConsumeRecs implements RecSink.
func (f RecFunc) ConsumeRecs(b RecBatch) { f(b) }

// recMeta is the per-static-instruction metadata folded into each record.
type recMeta struct {
	op     uint8
	wbytes uint8
	flags  uint8 // RecWritesDest when the instruction writes a register
}

// metaOf precomputes the per-static record metadata for a program.
func metaOf(p *prog.Program) []recMeta {
	meta := make([]recMeta, len(p.Ins))
	for i := range p.Ins {
		in := &p.Ins[i]
		meta[i] = recMeta{op: uint8(in.Op), wbytes: uint8(in.Width)}
		if _, ok := in.Dest(); ok {
			meta[i].flags = RecWritesDest
		}
	}
	return meta
}

// TraceRecorder is a Sink that captures a retirement stream into a packed
// trace. Attach it to a machine, run, then call Trace().
type TraceRecorder struct {
	p        *prog.Program
	meta     []recMeta
	budget   int64
	bytes    int64
	chunks   []RecBatch // full-capacity columns; all but the last are full
	fill     int        // records in the last chunk
	events   int64
	overflow bool

	rider RecSink // consumes every packed row as it is captured
	spill *packer // the rider's feed once an over-budget capture is dropped
}

// NewTraceRecorder returns a recorder for programs executing p, with the
// default memory budget.
func NewTraceRecorder(p *prog.Program) *TraceRecorder {
	return &TraceRecorder{p: p, meta: metaOf(p), budget: DefaultTraceBudget}
}

// SetBudget overrides the recorder's byte budget (<= 0 keeps the default).
func (r *TraceRecorder) SetBudget(bytes int64) {
	if bytes > 0 {
		r.budget = bytes
	}
}

// SetRider makes rs consume the recorder's packed rows as they are
// captured, so one live emulation feeds the trace and its first record
// consumer together. Rows keep flowing to rs, through a reusable batch,
// after an over-budget capture is abandoned.
func (r *TraceRecorder) SetRider(rs RecSink) { r.rider = rs }

// Consume implements Sink: it packs the batch onto the current chunk,
// growing chunk-by-chunk until the budget is hit, after which the capture
// is abandoned (and its memory released).
func (r *TraceRecorder) Consume(batch []Event) {
	for len(batch) > 0 {
		if r.overflow {
			if r.spill != nil {
				r.spill.Consume(batch)
			}
			return
		}
		if len(r.chunks) == 0 || r.fill == TraceChunkEvents {
			if r.bytes+TraceChunkEvents*recBytes > r.budget {
				r.overflow = true
				r.chunks = nil // release what was captured
				if r.rider != nil {
					r.spill = &packer{meta: r.meta, rs: r.rider, buf: newRecBatch(BatchSize)}
				}
				continue
			}
			r.chunks = append(r.chunks, newRecBatch(TraceChunkEvents))
			r.bytes += TraceChunkEvents * recBytes
			r.fill = 0
		}
		c := &r.chunks[len(r.chunks)-1]
		n := packRecs(c, r.fill, batch, r.meta)
		if r.rider != nil {
			r.rider.ConsumeRecs(c.slice(r.fill, r.fill+n))
		}
		r.fill += n
		r.events += int64(n)
		batch = batch[n:]
	}
}

// ErrTraceBudget marks a capture abandoned for exceeding its memory
// budget — the one expected TraceRecorder failure. Callers distinguish it
// (errors.Is) from genuine capture defects, which must propagate.
var ErrTraceBudget = errors.New("trace capture exceeded the memory budget")

// Trace returns the captured trace, or an error wrapping ErrTraceBudget
// when the capture exceeded the memory budget (callers should fall back
// to live emulation).
func (r *TraceRecorder) Trace() (*Trace, error) {
	if r.overflow {
		return nil, fmt.Errorf("emu: %w (%d bytes) after %d events",
			ErrTraceBudget, r.budget, r.events)
	}
	chunks := append([]RecBatch(nil), r.chunks...)
	if len(chunks) > 0 {
		last := len(chunks) - 1
		chunks[last] = chunks[last].slice(0, r.fill)
	}
	return &Trace{p: r.p, chunks: chunks, events: r.events, bytes: r.bytes}, nil
}

// Trace is an immutable packed retirement trace: the full observable
// stream of one program execution, replayable into any Sink or RecSink.
type Trace struct {
	p      *prog.Program
	chunks []RecBatch
	events int64
	bytes  int64
}

// Len returns the number of recorded events.
func (t *Trace) Len() int64 { return t.events }

// Bytes returns the resident size of the packed trace.
func (t *Trace) Bytes() int64 { return t.bytes }

// Program returns the program the trace was captured from.
func (t *Trace) Program() *prog.Program { return t.p }

// Records streams the packed record batches (one per chunk) into rs, in
// retirement order. This is the fast path for consumers that only need
// packed fields; no Events are materialised.
func (t *Trace) Records(rs RecSink) {
	for i := range t.chunks {
		if t.chunks[i].Len() > 0 {
			rs.ConsumeRecs(t.chunks[i])
		}
	}
}

// Replay reconstructs the recorded Event stream and delivers it to sink in
// BatchSize batches — the exact stream (and batching shape) a live
// emulation with that sink would have produced. The batch buffer is reused
// across calls to sink.Consume, mirroring the machine's contract.
func (t *Trace) Replay(sink Sink) {
	ins := t.p.Ins
	buf := make([]Event, BatchSize)
	n := 0
	for ci := range t.chunks {
		c := &t.chunks[ci]
		idxs := c.Idx
		if len(idxs) == 0 {
			continue
		}
		// Co-slicing the columns to one length lets the loop index them
		// without per-column bounds checks.
		nexts := c.Next[:len(idxs)]
		flags := c.Flags[:len(idxs)]
		addrs := c.Addr[:len(idxs)]
		values := c.Value[:len(idxs)]
		srcAs := c.SrcA[:len(idxs)]
		srcBs := c.SrcB[:len(idxs)]
		for i := range idxs {
			idx := idxs[i]
			ev := &buf[n]
			ev.Idx = int(idx)
			ev.Ins = &ins[idx]
			ev.Next = int(nexts[i])
			ev.Taken = flags[i]&RecTaken != 0
			ev.Addr = addrs[i]
			ev.Value = values[i]
			ev.SrcA = srcAs[i]
			ev.SrcB = srcBs[i]
			n++
			if n == BatchSize {
				sink.Consume(buf)
				n = 0
			}
		}
	}
	if n > 0 {
		sink.Consume(buf[:n])
	}
}

// packer adapts a live Event stream to a RecSink: each batch is packed
// into a reusable RecBatch and forwarded. It lets packed-record consumers
// (width histograms, profilers) run off a live emulation when no trace is
// available, with the same zero-Ins-chasing inner loop.
type packer struct {
	meta []recMeta
	rs   RecSink
	buf  RecBatch
}

// NewPacker returns a Sink that packs live event batches for rs. p must be
// the program the machine executes.
func NewPacker(p *prog.Program, rs RecSink) Sink {
	return &packer{meta: metaOf(p), rs: rs, buf: newRecBatch(BatchSize)}
}

// Consume implements Sink. Machine-owned batches never exceed BatchSize,
// but other producers may hand in larger slices; the loop drains them in
// buffer-sized pieces rather than dropping the tail.
func (k *packer) Consume(batch []Event) {
	for len(batch) > 0 {
		n := packRecs(&k.buf, 0, batch, k.meta)
		k.rs.ConsumeRecs(k.buf.slice(0, n))
		batch = batch[n:]
	}
}
