package emu_test

import (
	"reflect"
	"testing"

	"opgate/internal/emu"
	"opgate/internal/isa"
)

// flatten drains a trace into one whole-trace RecBatch (the shape a codec
// hands to NewTraceFromRecords).
func flatten(tr *emu.Trace) emu.RecBatch {
	var flat emu.RecBatch
	tr.Records(emu.RecFunc(func(b emu.RecBatch) {
		flat.Idx = append(flat.Idx, b.Idx...)
		flat.Next = append(flat.Next, b.Next...)
		flat.Op = append(flat.Op, b.Op...)
		flat.WBytes = append(flat.WBytes, b.WBytes...)
		flat.Flags = append(flat.Flags, b.Flags...)
		flat.Addr = append(flat.Addr, b.Addr...)
		flat.Value = append(flat.Value, b.Value...)
		flat.SrcA = append(flat.SrcA, b.SrcA...)
		flat.SrcB = append(flat.SrcB, b.SrcB...)
	}))
	return flat
}

// TestRestoreRoundTrip: a trace rebuilt from its own flattened records
// replays the identical event stream and reports the identical shape.
func TestRestoreRoundTrip(t *testing.T) {
	p := assembleProg(t, branchyProgram)
	tr, live := recordTrace(t, p)

	restored, err := emu.NewTraceFromRecords(p, flatten(tr))
	if err != nil {
		t.Fatalf("restore of a faithful flatten failed: %v", err)
	}
	if restored.Len() != tr.Len() || restored.Bytes() != tr.Bytes() || restored.Program() != p {
		t.Fatalf("restored shape drifted: len %d/%d bytes %d/%d",
			restored.Len(), tr.Len(), restored.Bytes(), tr.Bytes())
	}
	var replayed eventCollector
	restored.Replay(&replayed)
	if !reflect.DeepEqual(replayed.recs, live.recs) {
		t.Fatal("restored trace replays a different stream than the live run")
	}
}

// TestRestoreRejectsInvalidRecords: every way a record can disagree with
// the program is an error, never a panic or a silently wrong trace.
func TestRestoreRejectsInvalidRecords(t *testing.T) {
	p := assembleProg(t, branchyProgram)
	tr, _ := recordTrace(t, p)

	cases := map[string]func(b *emu.RecBatch){
		"ragged-columns":     func(b *emu.RecBatch) { b.Addr = b.Addr[:len(b.Addr)-1] },
		"idx-out-of-range":   func(b *emu.RecBatch) { b.Idx[0] = int32(len(p.Ins)) },
		"idx-negative":       func(b *emu.RecBatch) { b.Idx[0] = -1 },
		"next-out-of-range":  func(b *emu.RecBatch) { b.Next[0] = int32(len(p.Ins)) + 7 },
		"op-mismatch":        func(b *emu.RecBatch) { b.Op[0] ^= 0x7F },
		"width-mismatch":     func(b *emu.RecBatch) { b.WBytes[0] ^= 0x0F },
		"undefined-flag-bit": func(b *emu.RecBatch) { b.Flags[0] |= 0x80 },
		"writesdest-flipped": func(b *emu.RecBatch) { b.Flags[0] ^= emu.RecWritesDest },
	}
	for name, mutate := range cases {
		t.Run(name, func(t *testing.T) {
			recs := flatten(tr)
			mutate(&recs)
			if _, err := emu.NewTraceFromRecords(p, recs); err == nil {
				t.Fatal("restore accepted records inconsistent with the program")
			}
		})
	}

	// And rebinding to a foreign program must fail even with well-formed
	// columns: the other program's metadata cannot match.
	other := assembleProg(t, `
.text
.func main
	ld.b r1, 0(r29)
	halt
`)
	if _, err := emu.NewTraceFromRecords(other, flatten(tr)); err == nil {
		t.Fatal("restore bound a trace to a program it was not captured from")
	}
}

// TestRestoreEmptyTrace: zero records restore to a zero-length trace.
func TestRestoreEmptyTrace(t *testing.T) {
	p := assembleProg(t, branchyProgram)
	tr, err := emu.NewTraceFromRecords(p, emu.RecBatch{})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 0 || tr.Bytes() != 0 {
		t.Fatalf("empty restore has len %d bytes %d", tr.Len(), tr.Bytes())
	}
	tr.Replay(emu.FuncSink(func(emu.Event) { t.Fatal("empty trace replayed an event") }))
}

// TestSkeletonFromTrace: a skeleton synthesized from a trace's own
// records accepts those records and replays them unchanged, and every
// malformed or self-contradicting record set is rejected with an error.
func TestSkeletonFromTrace(t *testing.T) {
	p := assembleProg(t, branchyProgram)
	tr, _ := recordTrace(t, p)
	recs := flatten(tr)

	skel, err := emu.NewProgramFromTrace(recs)
	if err != nil {
		t.Fatalf("skeleton of a faithful trace failed: %v", err)
	}
	restored, err := emu.NewTraceFromRecords(skel, recs)
	if err != nil {
		t.Fatalf("skeleton rejected the records it was built from: %v", err)
	}
	if !reflect.DeepEqual(flatten(restored), recs) {
		t.Fatal("skeleton-bound trace replays different records")
	}

	// noDest is a record whose opcode cannot write a destination; again
	// is a record retiring a static index an earlier record retired.
	noDest, again := -1, -1
	seen := map[int32]bool{}
	for i, op := range recs.Op {
		if noDest < 0 && !isa.HasDest(isa.Op(op)) {
			noDest = i
		}
		if again < 0 && seen[recs.Idx[i]] {
			again = i
		}
		seen[recs.Idx[i]] = true
	}
	if noDest < 0 || again < 0 {
		t.Fatalf("trace lacks a destination-less (%d) or repeated (%d) record", noDest, again)
	}
	cases := map[string]func(b *emu.RecBatch){
		"empty":              func(b *emu.RecBatch) { *b = emu.RecBatch{} },
		"ragged-columns":     func(b *emu.RecBatch) { b.SrcB = b.SrcB[:len(b.SrcB)-1] },
		"idx-negative":       func(b *emu.RecBatch) { b.Idx[0] = -1 },
		"idx-too-large":      func(b *emu.RecBatch) { b.Idx[0] = emu.MaxSkeletonIns },
		"next-too-large":     func(b *emu.RecBatch) { b.Next[0] = emu.MaxSkeletonIns },
		"undefined-opcode":   func(b *emu.RecBatch) { b.Op[0] = uint8(isa.OpInvalid) },
		"impossible-width":   func(b *emu.RecBatch) { b.WBytes[0] = 3 },
		"undefined-flag-bit": func(b *emu.RecBatch) { b.Flags[0] |= 0x80 },
		"dest-on-no-dest-op": func(b *emu.RecBatch) { b.Flags[noDest] |= emu.RecWritesDest },
		"static-conflict": func(b *emu.RecBatch) {
			// A valid width, but not the one the index retired with before.
			if b.WBytes[again] == 8 {
				b.WBytes[again] = 4
			} else {
				b.WBytes[again] = 8
			}
		},
	}
	for name, mutate := range cases {
		t.Run(name, func(t *testing.T) {
			recs := flatten(tr)
			mutate(&recs)
			if _, err := emu.NewProgramFromTrace(recs); err == nil {
				t.Fatal("skeleton synthesis accepted malformed records")
			}
		})
	}
}
