package emu_test

import (
	"errors"
	"reflect"
	"testing"

	"opgate/internal/emu"
	"opgate/internal/isa"
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
// record column identical (op, width and writes-dest re-derived from each
// Event's instruction), and the same batching shape.
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

			if tr.Len() != int64(len(live.recs)) {
				t.Fatalf("trace recorded %d events, live run delivered %d", tr.Len(), len(live.recs))
			}
			var replayed eventCollector
			tr.Replay(&replayed)
			if len(replayed.recs) != len(live.recs) {
				t.Fatalf("replay delivered %d events, live %d", len(replayed.recs), len(live.recs))
			}
			for i := range live.recs {
				if replayed.recs[i] != live.recs[i] {
					t.Fatalf("event %d differs:\nreplay: %+v\nlive:   %+v",
						i, replayed.recs[i], live.recs[i])
				}
			}
			if !reflect.DeepEqual(replayed.batches, live.batches) {
				t.Fatalf("replay batch shape %v differs from live %v", replayed.batches, live.batches)
			}
			// A second replay must deliver the same stream again (the
			// trace is immutable).
			var again eventCollector
			tr.Replay(&again)
			if !reflect.DeepEqual(again.recs, replayed.recs) {
				t.Fatal("second replay differs from first")
			}
		})
	}
}

// TestRecordsCarryOpWidthAndFlags: the folded-in columns of every live
// record must agree with the instruction it retired — record consumers
// never need the program to learn op, width, or destination-write.
func TestRecordsCarryOpWidthAndFlags(t *testing.T) {
	p := assembleProg(t, branchyProgram)
	_, live := recordTrace(t, p)
	if len(live.recs) == 0 {
		t.Fatal("no records")
	}
	for i, r := range live.recs {
		in := &p.Ins[r.Idx]
		if r.Op != uint8(in.Op) || r.WBytes != uint8(in.Width) {
			t.Fatalf("record %d op/width (%d,%d) != instruction (%v,%v)",
				i, r.Op, r.WBytes, in.Op, in.Width)
		}
		_, writes := in.Dest()
		if got := r.Flags&emu.RecWritesDest != 0; got != writes {
			t.Fatalf("record %d writes-dest %v != instruction %v", i, got, writes)
		}
		if taken := r.Flags&emu.RecTaken != 0; taken != (int(r.Next) != int(r.Idx)+1) && in.Op != isa.OpHALT {
			t.Fatalf("record %d taken %v disagrees with next %d after %d", i, taken, r.Next, r.Idx)
		}
	}
}

// TestLiveRecordsMatchTraceRecords: a sink attached to a live run must
// see the same record columns as capturing a trace and reading it back.
func TestLiveRecordsMatchTraceRecords(t *testing.T) {
	p := assembleProg(t, branchyProgram)
	tr, live := recordTrace(t, p)
	var fromTrace collector
	tr.Records(&fromTrace)
	if !reflect.DeepEqual(live.recs, fromTrace.recs) {
		t.Fatal("live record stream differs from trace records")
	}
}

// tee fans one retirement stream out to several sinks, in order.
type tee []emu.Sink

func (t tee) ConsumeRecs(b emu.RecBatch) {
	for _, s := range t {
		s.ConsumeRecs(b)
	}
}

// TestRecorderRiderSeesEveryRow: a recorder's rider must see exactly the
// record stream a plain live sink sees, whether the capture completes or
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
	var want collector
	m := emu.New(p)
	m.Sink = &want
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if len(want.recs) <= emu.TraceChunkEvents {
		t.Fatalf("workload retires %d instructions, too few to overflow after one chunk", len(want.recs))
	}
	// 0 keeps the default budget; one chunk's worth overflows mid-run.
	for _, budget := range []int64{0, emu.TraceChunkEvents * 43} {
		var got collector
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
		if !reflect.DeepEqual(got.recs, want.recs) {
			t.Fatalf("budget %d: rider rows differ from the live stream", budget)
		}
		if tr != nil {
			var fromTrace collector
			tr.Records(&fromTrace)
			if !reflect.DeepEqual(fromTrace.recs, want.recs) {
				t.Fatal("trace records differ from the live stream")
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
// replayed trace must produce the identical counts and value tables as
// attaching it to a live run.
func TestProfilerRecordsMatchAttach(t *testing.T) {
	p := assembleProg(t, branchyProgram)
	points := []int{2, 3, 5} // store, load, add inside the loop

	tr, _ := recordTrace(t, p)
	fromRecs := emu.NewProfiler(len(p.Ins), points)
	tr.Records(fromRecs)

	fromLive := emu.NewProfiler(len(p.Ins), points)
	m := emu.New(p)
	m.Sink = fromLive
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fromRecs.Counts, fromLive.Counts) {
		t.Fatalf("counts differ: %v vs %v", fromRecs.Counts, fromLive.Counts)
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
