package emu

import (
	"fmt"

	"opgate/internal/prog"
)

// This file is the trace rehydration path: a packed trace that was
// serialized (internal/store's codec streams the RecBatch columns) is
// reassembled into a live *Trace bound to the program it was captured
// from. Restoration validates every record against the program — a trace
// is only ever an accelerator, so a malformed or mismatched byte stream
// must become an error, never a panic or a silently wrong replay.

// NewTraceFromRecords rebuilds a packed trace for p from whole-trace
// record columns (typically decoded from a persistent store). All columns
// of recs must share one length; every record is validated against p:
// static and next indices must be in range, and the folded-in opcode,
// width and writes-dest flag must match the program's own instruction
// metadata, so a trace cannot be rebound to a program it was not captured
// from. The trace takes ownership of recs: its chunks are views of the
// columns, so the caller must not modify them afterwards.
func NewTraceFromRecords(p *prog.Program, recs RecBatch) (*Trace, error) {
	n := recs.Len()
	for _, l := range [...]int{
		len(recs.Next), len(recs.Op), len(recs.WBytes), len(recs.Flags),
		len(recs.Addr), len(recs.Value), len(recs.SrcA), len(recs.SrcB),
	} {
		if l != n {
			return nil, fmt.Errorf("emu: restore: ragged record columns (%d vs %d)", l, n)
		}
	}
	dec := predecode(p)
	for i := 0; i < n; i++ {
		idx := recs.Idx[i]
		if idx < 0 || int(idx) >= len(p.Ins) {
			return nil, fmt.Errorf("emu: restore: record %d: static index %d outside program (%d instructions)",
				i, idx, len(p.Ins))
		}
		if next := recs.Next[i]; next < 0 || int(next) >= len(p.Ins) {
			return nil, fmt.Errorf("emu: restore: record %d: next index %d outside program", i, next)
		}
		d := &dec[idx]
		if recs.Op[i] != uint8(d.op) || recs.WBytes[i] != d.wbytes {
			return nil, fmt.Errorf("emu: restore: record %d: op/width %d/%d does not match program instruction %d (%d/%d)",
				i, recs.Op[i], recs.WBytes[i], idx, d.op, d.wbytes)
		}
		if fl := recs.Flags[i]; fl&^(RecTaken|RecWritesDest) != 0 || fl&RecWritesDest != d.flags {
			return nil, fmt.Errorf("emu: restore: record %d: flags %#x inconsistent with program instruction %d",
				i, fl, idx)
		}
	}

	// Chunk the columns in place, in TraceChunkEvents views with a
	// captured trace's batch boundaries and byte accounting, so a restored
	// trace is indistinguishable from a freshly captured one.
	t := &Trace{p: p, events: int64(n)}
	for off := 0; off < n; off += TraceChunkEvents {
		t.chunks = append(t.chunks, recs.slice(off, min(off+TraceChunkEvents, n)))
		t.bytes += TraceChunkEvents * recBytes
	}
	return t, nil
}
