package emu

import (
	"fmt"

	"opgate/internal/prog"
)

// This file is the trace rehydration path: record columns that were
// serialized (internal/store's codec streams the RecBatch columns) are
// checked against the program they claim to come from, then either
// reassembled into a live *Trace (NewTraceFromRecords) or streamed
// straight to a consumer (the store's ReadTrace). A trace is only ever an
// accelerator, so a malformed or mismatched byte stream must become an
// error, never a panic or a silently wrong replay.

// RecordValidator checks packed records against the program they claim to
// come from: static and next indices must be in range, and the folded-in
// opcode, width and writes-dest flag must match the program's own
// instruction metadata, so records cannot be bound to a program they were
// not captured from. It reads only the narrow columns (Idx, Next, Op,
// WBytes, Flags). Every path that brings stored records back — whole-trace
// restoration and the store's streamed reader — validates through it.
type RecordValidator struct {
	dec  []decIns
	seen int // records checked by earlier calls, so errors number the stream
}

// NewRecordValidator returns a validator for records of p.
func NewRecordValidator(p *prog.Program) *RecordValidator {
	return &RecordValidator{dec: predecode(p)}
}

// Check validates the next records of a stream. Errors number records
// from the start of the stream, across calls.
func (v *RecordValidator) Check(recs RecBatch) error {
	n := recs.Len()
	if len(recs.Next) != n || len(recs.Op) != n || len(recs.WBytes) != n || len(recs.Flags) != n {
		return fmt.Errorf("emu: ragged record columns at record %d", v.seen)
	}
	for i := 0; i < n; i++ {
		rec := v.seen + i
		idx := recs.Idx[i]
		if idx < 0 || int(idx) >= len(v.dec) {
			return fmt.Errorf("emu: record %d: static index %d outside program (%d instructions)",
				rec, idx, len(v.dec))
		}
		if next := recs.Next[i]; next < 0 || int(next) >= len(v.dec) {
			return fmt.Errorf("emu: record %d: next index %d outside program", rec, next)
		}
		d := &v.dec[idx]
		if recs.Op[i] != uint8(d.op) || recs.WBytes[i] != d.wbytes {
			return fmt.Errorf("emu: record %d: op/width %d/%d does not match program instruction %d (%d/%d)",
				rec, recs.Op[i], recs.WBytes[i], idx, d.op, d.wbytes)
		}
		if fl := recs.Flags[i]; fl&^(RecTaken|RecWritesDest) != 0 || fl&RecWritesDest != d.flags {
			return fmt.Errorf("emu: record %d: flags %#x inconsistent with program instruction %d",
				rec, fl, idx)
		}
	}
	v.seen += n
	return nil
}

// TraceBytes is the resident size of a packed trace of the given length,
// counted in whole chunks as a recorder allocates them: the measure every
// trace byte budget is compared against.
func TraceBytes(events int64) int64 {
	chunks := (events + TraceChunkEvents - 1) / TraceChunkEvents
	return chunks * TraceChunkEvents * recBytes
}

// NewTraceFromRecords rebuilds a packed trace for p from whole-trace
// record columns (typically decoded from a persistent store). All columns
// of recs must share one length, and every record must pass p's
// RecordValidator. The trace takes ownership of recs: its chunks are views
// of the columns, so the caller must not modify them afterwards.
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
	if err := NewRecordValidator(p).Check(recs); err != nil {
		return nil, err
	}

	// Chunk the columns in place, in TraceChunkEvents views with a
	// captured trace's batch boundaries and byte accounting, so a restored
	// trace is indistinguishable from a freshly captured one.
	t := &Trace{p: p, events: int64(n), bytes: TraceBytes(int64(n))}
	for off := 0; off < n; off += TraceChunkEvents {
		t.chunks = append(t.chunks, recs.slice(off, min(off+TraceChunkEvents, n)))
	}
	return t, nil
}
