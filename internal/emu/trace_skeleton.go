package emu

import (
	"fmt"

	"opgate/internal/isa"
	"opgate/internal/prog"
)

// This file is the trace-ingestion half of the restore path: where
// trace_restore.go rebinds records to the program they were captured
// from, this file synthesizes that program when only the trace exists —
// an externally captured retirement stream carries its per-static table
// (opcode, operand width, writes-dest) inline in every record, which is
// exactly the metadata predecode derives from a real binary. A skeleton
// built from that table validates and replays the trace bit-for-bit
// through every record consumer (width histograms, the power model's
// significance scans, the timing model's replay path), so arbitrary
// real binaries become first-class workloads without an emulator for
// their ISA. A skeleton cannot be emulated — its operand registers are
// all the zero register and its data segment is empty — so callers must
// keep it on the replay-only path.

// MaxSkeletonIns bounds the static table a trace may declare: record
// indices address instructions, so a single hostile record could
// otherwise demand a multi-gigabyte instruction image. 1<<20 static
// instructions is two orders of magnitude above the largest generated
// program.
const MaxSkeletonIns = 1 << 20

// NewProgramFromTrace synthesizes a skeleton program from the per-static
// table folded into whole-trace record columns. Every record's (op,
// width, writes-dest) triple is validated — opcodes must be defined,
// widths must be operand widths (or zero for width-less control flow),
// flag bits must be known, and all records of one static index must
// agree — so the result is the unique program metadata the trace was
// captured against. The skeleton round-trips: NewTraceFromRecords
// accepts the same records against it, and store.ProgramIdentity of the
// skeleton is a deterministic hash of the static table alone.
func NewProgramFromTrace(recs RecBatch) (*prog.Program, error) {
	n := recs.Len()
	for _, l := range [...]int{
		len(recs.Next), len(recs.Op), len(recs.WBytes), len(recs.Flags),
		len(recs.Addr), len(recs.Value), len(recs.SrcA), len(recs.SrcB),
	} {
		if l != n {
			return nil, fmt.Errorf("emu: ingest: ragged record columns (%d vs %d)", l, n)
		}
	}
	if n == 0 {
		return nil, fmt.Errorf("emu: ingest: empty trace has no static table")
	}

	// Accumulate the per-static table, rejecting the first inconsistency.
	type static struct {
		seen   bool
		op     uint8
		wbytes uint8
		writes bool
	}
	var table []static
	size := 0
	for i := 0; i < n; i++ {
		idx, next := recs.Idx[i], recs.Next[i]
		if idx < 0 || idx >= MaxSkeletonIns {
			return nil, fmt.Errorf("emu: ingest: record %d: static index %d out of range", i, idx)
		}
		if next < 0 || next >= MaxSkeletonIns {
			return nil, fmt.Errorf("emu: ingest: record %d: next index %d out of range", i, next)
		}
		op := isa.Op(recs.Op[i])
		if op == isa.OpInvalid || int(op) >= isa.NumOps {
			return nil, fmt.Errorf("emu: ingest: record %d: undefined opcode %d", i, recs.Op[i])
		}
		switch recs.WBytes[i] {
		case 0, 1, 2, 4, 8:
		default:
			return nil, fmt.Errorf("emu: ingest: record %d: impossible operand width %d bytes", i, recs.WBytes[i])
		}
		fl := recs.Flags[i]
		if fl&^(RecTaken|RecWritesDest) != 0 {
			return nil, fmt.Errorf("emu: ingest: record %d: unknown flag bits %#x", i, fl)
		}
		writes := fl&RecWritesDest != 0
		if writes && !isa.HasDest(op) {
			return nil, fmt.Errorf("emu: ingest: record %d: opcode %v cannot write a destination", i, op)
		}
		if int(idx) >= len(table) {
			grown := make([]static, idx+1)
			copy(grown, table)
			table = grown
		}
		st := &table[idx]
		if st.seen {
			if st.op != recs.Op[i] || st.wbytes != recs.WBytes[i] || st.writes != writes {
				return nil, fmt.Errorf("emu: ingest: record %d: static index %d conflicts with an earlier record (op/width/dest %d/%d/%v vs %d/%d/%v)",
					i, idx, recs.Op[i], recs.WBytes[i], writes, st.op, st.wbytes, st.writes)
			}
		} else {
			*st = static{seen: true, op: recs.Op[i], wbytes: recs.WBytes[i], writes: writes}
		}
		if int(idx) >= size {
			size = int(idx) + 1
		}
		if int(next) >= size {
			size = int(next) + 1
		}
	}

	// Materialise the skeleton: operand registers are the zero register
	// (replay never evaluates them; the timing model skips rz in its
	// dependence tracking), the destination is r1 exactly when the trace
	// says the instruction writes one, and never-retired gaps stay
	// OpInvalid. The image is a pure function of the static table, so
	// ProgramIdentity(skeleton) is the table's content hash.
	ins := make([]isa.Instruction, size)
	for idx := range table {
		st := &table[idx]
		if !st.seen {
			continue
		}
		rd := isa.Reg(isa.ZeroReg)
		if st.writes {
			rd = isa.Reg(1)
		}
		ins[idx] = isa.Instruction{
			Op:    isa.Op(st.op),
			Width: isa.Width(st.wbytes),
			Rd:    rd,
			Ra:    isa.Reg(isa.ZeroReg),
			Rb:    isa.Reg(isa.ZeroReg),
		}
	}
	return &prog.Program{
		Ins:   ins,
		Funcs: []*prog.Func{{Name: "main", Index: 0, Start: 0, End: size}},
		Entry: 0,
	}, nil
}
