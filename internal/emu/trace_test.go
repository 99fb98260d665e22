package emu_test

import (
	"errors"
	"reflect"
	"testing"

	"opgate/internal/emu"
	"opgate/internal/prog"
	"opgate/internal/workload"
)

// recordTrace runs p once with a TraceRecorder attached and returns the
// capture alongside the live stream a plain collector saw.
func recordTrace(t *testing.T, p *prog.Program) (*emu.Trace, *collector) {
	t.Helper()
	var live collector
	rec := emu.NewTraceRecorder(p)
	m := emu.New(p)
	m.Sink = tee{rec, &live}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	tr, err := rec.Trace()
	if err != nil {
		t.Fatal(err)
	}
	return tr, &live
}

// TestTraceReplayMatchesLive is the trace layer's tentpole invariant: the
// replayed stream must be byte-for-byte the live retirement stream — every
// Event field identical, and the same batching shape.
func TestTraceReplayMatchesLive(t *testing.T) {
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
			tr, live := recordTrace(t, p)

			if tr.Len() != int64(len(live.events)) {
				t.Fatalf("trace recorded %d events, live run delivered %d", tr.Len(), len(live.events))
			}
			var replayed collector
			tr.Replay(&replayed)
			if len(replayed.events) != len(live.events) {
				t.Fatalf("replay delivered %d events, live %d", len(replayed.events), len(live.events))
			}
			for i := range live.events {
				if !reflect.DeepEqual(replayed.events[i], live.events[i]) {
					t.Fatalf("event %d differs:\nreplay: %+v\nlive:   %+v",
						i, replayed.events[i], live.events[i])
				}
			}
			if !reflect.DeepEqual(replayed.batches, live.batches) {
				t.Fatalf("replay batch shape %v differs from live %v", replayed.batches, live.batches)
			}
			// A second replay must deliver the same stream again (the
			// trace is immutable).
			var again collector
			tr.Replay(&again)
			if !reflect.DeepEqual(again.events, replayed.events) {
				t.Fatal("second replay differs from first")
			}
		})
	}
}

// recCollector copies packed record columns out of the (reused) batches.
type recCollector struct {
	idx           []int32
	op, wb, flags []uint8
	value         []int64
}

func (c *recCollector) ConsumeRecs(b emu.RecBatch) {
	c.idx = append(c.idx, b.Idx...)
	c.op = append(c.op, b.Op...)
	c.wb = append(c.wb, b.WBytes...)
	c.flags = append(c.flags, b.Flags...)
	c.value = append(c.value, b.Value...)
}

// TestRecordsCarryOpWidthAndFlags: the packed record's folded-in columns
// must agree with the instruction each event retired — replay consumers
// never need to chase Event.Ins to learn op, width, or destination-write.
func TestRecordsCarryOpWidthAndFlags(t *testing.T) {
	p := assembleProg(t, branchyProgram)
	tr, live := recordTrace(t, p)

	var recs recCollector
	tr.Records(&recs)
	if len(recs.idx) != len(live.events) {
		t.Fatalf("records delivered %d entries, live %d", len(recs.idx), len(live.events))
	}
	for i, ev := range live.events {
		if int(recs.idx[i]) != ev.Idx {
			t.Fatalf("record %d idx %d != event idx %d", i, recs.idx[i], ev.Idx)
		}
		if recs.op[i] != uint8(ev.Ins.Op) || recs.wb[i] != uint8(ev.Ins.Width) {
			t.Fatalf("record %d op/width (%d,%d) != instruction (%v,%v)",
				i, recs.op[i], recs.wb[i], ev.Ins.Op, ev.Ins.Width)
		}
		if taken := recs.flags[i]&emu.RecTaken != 0; taken != ev.Taken {
			t.Fatalf("record %d taken %v != event %v", i, taken, ev.Taken)
		}
		_, writes := ev.Ins.Dest()
		if got := recs.flags[i]&emu.RecWritesDest != 0; got != writes {
			t.Fatalf("record %d writes-dest %v != instruction %v", i, got, writes)
		}
		if recs.value[i] != ev.Value {
			t.Fatalf("record %d value %d != event %d", i, recs.value[i], ev.Value)
		}
	}
}

// TestPackerMatchesTraceRecords: packing a live stream on the fly must
// yield the same record columns as capturing a trace and reading it back.
func TestPackerMatchesTraceRecords(t *testing.T) {
	p := assembleProg(t, branchyProgram)
	tr, _ := recordTrace(t, p)
	var fromTrace recCollector
	tr.Records(&fromTrace)

	var livePacked recCollector
	m := emu.New(p)
	m.Sink = emu.NewPacker(p, &livePacked)
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(livePacked, fromTrace) {
		t.Fatal("live-packed record stream differs from trace records")
	}
}

// tee fans one retirement stream out to several sinks, in order.
type tee []emu.Sink

func (t tee) Consume(batch []emu.Event) {
	for _, s := range t {
		s.Consume(batch)
	}
}

// TestRecorderRiderSeesEveryRow: a recorder's rider must see exactly the
// record stream a live packer produces, whether the capture completes or
// outgrows its budget partway (rows keep flowing after the drop).
func TestRecorderRiderSeesEveryRow(t *testing.T) {
	w, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	p, err := w.Build(workload.Train)
	if err != nil {
		t.Fatal(err)
	}
	var want recCollector
	m := emu.New(p)
	m.Sink = emu.NewPacker(p, &want)
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if len(want.idx) <= emu.TraceChunkEvents {
		t.Fatalf("workload retires %d instructions, too few to overflow after one chunk", len(want.idx))
	}
	// 0 keeps the default budget; one chunk's worth overflows mid-run.
	for _, budget := range []int64{0, emu.TraceChunkEvents * 43} {
		var got recCollector
		rec := emu.NewTraceRecorder(p)
		rec.SetBudget(budget)
		rec.SetRider(&got)
		m := emu.New(p)
		m.Sink = rec
		if err := m.Run(); err != nil {
			t.Fatal(err)
		}
		tr, err := rec.Trace()
		if overflowed := budget > 0; overflowed != errors.Is(err, emu.ErrTraceBudget) {
			t.Fatalf("budget %d: Trace() error %v", budget, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("budget %d: rider rows differ from the live-packed stream", budget)
		}
		if tr != nil {
			var fromTrace recCollector
			tr.Records(&fromTrace)
			if !reflect.DeepEqual(fromTrace, want) {
				t.Fatal("trace records differ from the live-packed stream")
			}
		}
	}
}

// TestTraceBudgetOverflow: a capture that would exceed its byte budget is
// abandoned — memory is released, Trace() reports the overflow, and the
// recorder stays a valid (inert) sink.
func TestTraceBudgetOverflow(t *testing.T) {
	w, err := workload.ByName("compress")
	if err != nil {
		t.Fatal(err)
	}
	p, err := w.Build(workload.Train)
	if err != nil {
		t.Fatal(err)
	}
	rec := emu.NewTraceRecorder(p)
	rec.SetBudget(1) // below one chunk: overflows on the first event
	m := emu.New(p)
	m.Sink = rec
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := rec.Trace(); !errors.Is(err, emu.ErrTraceBudget) {
		t.Fatalf("over-budget capture: err = %v, want ErrTraceBudget", err)
	}
}

// TestProfilerRecordsMatchAttach: feeding the profiler the records of a
// replayed trace must produce the identical value tables as feeding it a
// live run packed on the fly (the over-budget fallback of VRS profiling).
func TestProfilerRecordsMatchAttach(t *testing.T) {
	p := assembleProg(t, branchyProgram)
	points := []int{2, 3, 5} // store, load, add inside the loop

	tr, _ := recordTrace(t, p)
	fromRecs := emu.NewProfiler(points)
	tr.Records(fromRecs)

	fromLive := emu.NewProfiler(points)
	m := emu.New(p)
	m.Sink = emu.NewPacker(p, fromLive)
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	for _, idx := range points {
		a, b := fromRecs.Points[idx], fromLive.Points[idx]
		if a.Total != b.Total {
			t.Fatalf("point %d totals differ: %d vs %d", idx, a.Total, b.Total)
		}
		if !reflect.DeepEqual(a.Entries(), b.Entries()) {
			t.Fatalf("point %d entries differ: %v vs %v", idx, a.Entries(), b.Entries())
		}
	}
}
