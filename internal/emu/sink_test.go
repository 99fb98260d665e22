package emu_test

import (
	"reflect"
	"testing"

	"opgate/internal/asm"
	"opgate/internal/emu"
	"opgate/internal/prog"
	"opgate/internal/workload"
)

// rec is one retirement record, flattened so streams compare with ==.
type rec struct {
	Idx, Next               int32
	Op, WBytes, Flags       uint8
	Addr, Value, SrcA, SrcB int64
}

// collector retains a copy of every record it consumes, plus the batch
// sizes it saw (the batch columns themselves are machine-owned and
// reused).
type collector struct {
	recs    []rec
	batches []int
}

func (c *collector) ConsumeRecs(b emu.RecBatch) {
	for i := range b.Idx {
		c.recs = append(c.recs, rec{
			b.Idx[i], b.Next[i], b.Op[i], b.WBytes[i], b.Flags[i],
			b.Addr[i], b.Value[i], b.SrcA[i], b.SrcB[i],
		})
	}
	c.batches = append(c.batches, b.Len())
}

// eventRec flattens a replayed event into a record, deriving the opcode,
// width and writes-dest flag from the event's instruction (independently
// of the metadata the dispatch loop folds in).
func eventRec(ev emu.Event) rec {
	var flags uint8
	if ev.Taken {
		flags |= emu.RecTaken
	}
	if _, ok := ev.Ins.Dest(); ok {
		flags |= emu.RecWritesDest
	}
	return rec{int32(ev.Idx), int32(ev.Next), uint8(ev.Ins.Op), uint8(ev.Ins.Width), flags,
		ev.Addr, ev.Value, ev.SrcA, ev.SrcB}
}

// eventCollector is collector's counterpart for replayed Event batches.
type eventCollector struct {
	recs    []rec
	batches []int
}

func (c *eventCollector) Consume(batch []emu.Event) {
	for _, ev := range batch {
		c.recs = append(c.recs, eventRec(ev))
	}
	c.batches = append(c.batches, len(batch))
}

// branchyProgram exercises every event field: memory traffic, taken and
// not-taken branches, calls, and output.
const branchyProgram = `
.data
buf: .space 64
.text
.func main
	lda r1, =buf
	lda r2, 0(rz)
loop:
	st.w r2, 0(r1)
	ld.w r3, 0(r1)
	jsr bump
	add r2, r2, #1
	cmplt r4, r2, #10
	bne r4, loop
	out.b r2
	halt
.func bump
	add r5, r5, #2
	ret
`

// TestBatchedRunMatchesStepStream is the tentpole equivalence check: the
// batched Run dispatch loop must deliver byte-for-byte the same record
// stream as executing the same program one Step at a time (each Step
// flushes its record immediately, as a one-record batch).
func TestBatchedRunMatchesStepStream(t *testing.T) {
	programs := map[string]func(t *testing.T) *prog.Program{
		"branchy": func(t *testing.T) *prog.Program { return assembleProg(t, branchyProgram) },
		"compress": func(t *testing.T) *prog.Program {
			w, err := workload.ByName("compress")
			if err != nil {
				t.Fatal(err)
			}
			p, err := w.Build(workload.Train)
			if err != nil {
				t.Fatal(err)
			}
			return p
		},
	}
	for name, build := range programs {
		t.Run(name, func(t *testing.T) {
			p := build(t)

			var batched collector
			mb := emu.New(p)
			mb.Sink = &batched
			if err := mb.Run(); err != nil {
				t.Fatal(err)
			}

			var stepped collector
			ms := emu.New(p)
			ms.Sink = &stepped
			for !ms.Halted {
				if err := ms.Step(); err != nil {
					t.Fatal(err)
				}
			}

			if len(batched.recs) != len(stepped.recs) {
				t.Fatalf("batched run delivered %d records, stepped run %d",
					len(batched.recs), len(stepped.recs))
			}
			for i := range batched.recs {
				if batched.recs[i] != stepped.recs[i] {
					t.Fatalf("record %d differs:\nbatched: %+v\nstepped: %+v",
						i, batched.recs[i], stepped.recs[i])
				}
			}
			// Every stepped batch is a single record; the batched run must
			// have actually used multi-record batches.
			for _, n := range stepped.batches {
				if n != 1 {
					t.Fatalf("Step delivered a batch of %d records, want 1", n)
				}
			}
			if len(batched.recs) > 1 {
				max := 0
				for _, n := range batched.batches {
					if n > max {
						max = n
					}
				}
				if max < 2 {
					t.Fatalf("Run delivered %d records but no batch larger than %d — batching is not happening",
						len(batched.recs), max)
				}
			}
			if mb.Dyn != ms.Dyn || !reflect.DeepEqual(mb.Regs, ms.Regs) {
				t.Fatalf("architectural state diverged: dyn %d vs %d", mb.Dyn, ms.Dyn)
			}
		})
	}
}

// TestFuncSinkMatchesBatchOrder: the per-event replay adapter sees the
// identical stream in the identical order as a batch consumer.
func TestFuncSinkMatchesBatchOrder(t *testing.T) {
	p := assembleProg(t, branchyProgram)
	tr, _ := recordTrace(t, p)

	var batched []emu.Event
	tr.Replay(eventBatches(func(batch []emu.Event) { batched = append(batched, batch...) }))
	var viaFunc []emu.Event
	tr.Replay(emu.FuncSink(func(ev emu.Event) { viaFunc = append(viaFunc, ev) }))

	if len(batched) == 0 || !reflect.DeepEqual(batched, viaFunc) {
		t.Fatalf("FuncSink stream differs from batch stream (%d vs %d events)",
			len(batched), len(viaFunc))
	}
}

// eventBatches adapts a function to emu.EventSink.
type eventBatches func([]emu.Event)

func (f eventBatches) Consume(batch []emu.Event) { f(batch) }

// TestResetReusesMemoryImage: after a run dirtied memory, Reset must
// restore the exact initial image (the dirty-page tracking must not leave
// stale bytes behind).
func TestResetReusesMemoryImage(t *testing.T) {
	p := assembleProg(t, branchyProgram)
	m := emu.New(p)
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	first := append([]byte(nil), m.Output...)

	m.Reset()
	fresh := emu.New(p)
	if !reflect.DeepEqual(m.Mem, fresh.Mem) {
		t.Fatal("Reset left stale memory compared to a fresh machine")
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m.Output, first) {
		t.Fatalf("second run output %x differs from first %x", m.Output, first)
	}
}

func assembleProg(t *testing.T, src string) *prog.Program {
	t.Helper()
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}
