package emu

import (
	"errors"
	"fmt"

	"opgate/internal/isa"
	"opgate/internal/prog"
)

// This file is the trace-capture/replay layer: a retirement stream is
// recorded once into a compact packed form and then read back any number
// of times — as the struct-of-arrays record batches the machine emits
// (Records, the path every production consumer takes), or re-expanded
// into per-instruction Events (Replay, kept for the differential oracles
// and tests that want one value per retired instruction).
//
// Layout: records are stored column-wise (struct of arrays) in fixed-size
// chunks of TraceChunkEvents records. One record costs recBytes (43)
// bytes: two int32s (static index, next index), three bytes (op, width in
// bytes, flags), and four int64s (addr, value, srcA, srcB). The machine
// already emits exactly these columns, so capture is a column copy per
// batch. A recorder refuses to grow past its byte budget
// (DefaultTraceBudget): the capture is dropped and
// Trace() reports the overflow, while the live run it rode goes on
// feeding the recorder's rider. A dropped capture costs only the copy
// that would have been kept — a trace is an accelerator, never a
// correctness dependency.
//
// Invariant: Trace.Records delivers the exact record stream of the live
// run it captured, and Trace.Replay the Event expansion of it with the
// live run's batching shape, so any consumer can read a trace in place of
// an emulation without observable difference.

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

// slice returns the sub-batch [lo, hi), capacity-capped so that appending
// to it reallocates instead of overwriting the records after hi.
func (b *RecBatch) slice(lo, hi int) RecBatch {
	return RecBatch{
		Idx: b.Idx[lo:hi:hi], Next: b.Next[lo:hi:hi],
		Op: b.Op[lo:hi:hi], WBytes: b.WBytes[lo:hi:hi], Flags: b.Flags[lo:hi:hi],
		Addr: b.Addr[lo:hi:hi], Value: b.Value[lo:hi:hi],
		SrcA: b.SrcA[lo:hi:hi], SrcB: b.SrcB[lo:hi:hi],
	}
}

// copyAt copies src into b starting at record off and returns how many
// records fit.
func (b *RecBatch) copyAt(off int, src RecBatch) int {
	n := copy(b.Idx[off:], src.Idx)
	copy(b.Next[off:off+n], src.Next)
	copy(b.Op[off:off+n], src.Op)
	copy(b.WBytes[off:off+n], src.WBytes)
	copy(b.Flags[off:off+n], src.Flags)
	copy(b.Addr[off:off+n], src.Addr)
	copy(b.Value[off:off+n], src.Value)
	copy(b.SrcA[off:off+n], src.SrcA)
	copy(b.SrcB[off:off+n], src.SrcB)
	return n
}

// newRecBatch allocates a batch with n (zeroed) records.
func newRecBatch(n int) RecBatch {
	return RecBatch{
		Idx: make([]int32, n), Next: make([]int32, n),
		Op: make([]uint8, n), WBytes: make([]uint8, n), Flags: make([]uint8, n),
		Addr: make([]int64, n), Value: make([]int64, n),
		SrcA: make([]int64, n), SrcB: make([]int64, n),
	}
}

// TraceRecorder is a Sink that captures a retirement stream into a packed
// trace. Attach it to a machine, run, then call Trace().
type TraceRecorder struct {
	p        *prog.Program
	budget   int64
	bytes    int64
	chunks   []RecBatch // full-capacity columns; all but the last are full
	fill     int        // records in the last chunk
	events   int64
	overflow bool

	rider Sink // consumes every record batch as it is captured
}

// NewTraceRecorder returns a recorder for programs executing p, with the
// default memory budget.
func NewTraceRecorder(p *prog.Program) *TraceRecorder {
	return &TraceRecorder{p: p, budget: DefaultTraceBudget}
}

// SetRider makes rs consume every record batch the recorder is handed, so
// one live emulation feeds the trace and its first record consumer
// together. Batches keep flowing to rs after an over-budget capture is
// abandoned.
func (r *TraceRecorder) SetRider(rs Sink) { r.rider = rs }

// ConsumeRecs implements Sink: it hands the batch to the rider and copies
// its columns onto the current chunk, growing chunk-by-chunk until the
// budget is hit, after which the capture is abandoned (and its memory
// released).
func (r *TraceRecorder) ConsumeRecs(b RecBatch) {
	if r.rider != nil {
		r.rider.ConsumeRecs(b)
	}
	for !r.overflow && b.Len() > 0 {
		if len(r.chunks) == 0 || r.fill == TraceChunkEvents {
			if r.bytes+TraceChunkEvents*recBytes > r.budget {
				r.overflow = true
				r.chunks = nil // release what was captured
				return
			}
			r.chunks = append(r.chunks, newRecBatch(TraceChunkEvents))
			r.bytes += TraceChunkEvents * recBytes
			r.fill = 0
		}
		n := r.chunks[len(r.chunks)-1].copyAt(r.fill, b)
		r.fill += n
		r.events += int64(n)
		b = b.slice(n, b.Len())
	}
}

// ErrTraceBudget marks a capture abandoned for exceeding its memory
// budget — the one expected TraceRecorder failure. Callers distinguish it
// (errors.Is) from genuine capture defects, which must propagate.
var ErrTraceBudget = errors.New("trace capture exceeded the memory budget")

// Trace returns the captured trace, or an error wrapping ErrTraceBudget
// when the capture exceeded the memory budget (the rider has still seen
// every record; only the trace itself is lost).
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
	return &Trace{p: r.p, chunks: chunks, events: r.events}, nil
}

// Trace is an immutable packed retirement trace: the full observable
// stream of one program execution, readable as record batches (Records)
// or as Events (Replay).
type Trace struct {
	p      *prog.Program
	chunks []RecBatch
	events int64
}

// Len returns the number of recorded events.
func (t *Trace) Len() int64 { return t.events }

// Program returns the program the trace was captured from.
func (t *Trace) Program() *prog.Program { return t.p }

// Records streams the packed record batches (one per chunk) into rs, in
// retirement order. This is the fast path for consumers that only need
// packed fields; no Events are materialised.
func (t *Trace) Records(rs Sink) {
	for i := range t.chunks {
		if t.chunks[i].Len() > 0 {
			rs.ConsumeRecs(t.chunks[i])
		}
	}
}

// Event describes one retired instruction, expanded from its record with
// a pointer to the static instruction. It is the output of Trace.Replay.
type Event struct {
	Idx   int              // static instruction index
	Ins   *isa.Instruction // the instruction (points into the program)
	Next  int              // index of the next instruction to execute
	Taken bool             // branch outcome (conditional branches)
	Addr  int64            // effective address (loads/stores)
	Value int64            // result value (dest write, store data, or out)
	SrcA  int64            // value of first source operand
	SrcB  int64            // value of second source operand / store data
}

// EventSink receives a replayed stream in batches of Events. The batch
// slice is reused across calls: consumers must not retain it.
type EventSink interface {
	Consume(batch []Event)
}

// FuncSink adapts a per-event function to EventSink, so one-off replay
// consumers stay one-liners: tr.Replay(emu.FuncSink(func(ev emu.Event) {...})).
type FuncSink func(Event)

// Consume delivers each event of the batch to the wrapped function in
// retirement order.
func (f FuncSink) Consume(batch []Event) {
	for i := range batch {
		f(batch[i])
	}
}

// Replay expands the recorded stream into Events and delivers them to
// sink in BatchSize batches — the batching shape a live run hands its
// Sink. The batch buffer is reused across calls to sink.Consume.
func (t *Trace) Replay(sink EventSink) {
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
