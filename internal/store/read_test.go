package store

import (
	"reflect"
	"strings"
	"testing"

	"opgate/internal/asm"
	"opgate/internal/emu"
	"opgate/internal/prog"
)

// getTrace reads the whole trace stored under key by ReadTrace into a
// recorder bound to p: the suite only ever streams, but the store tests
// compare whole traces.
func getTrace(s *Store, key Key, p *prog.Program, id Hash) (*emu.Trace, bool) {
	rec := emu.NewTraceRecorder(p)
	if !s.ReadTrace(key, p, id, rec) {
		return nil, false
	}
	tr, err := rec.Trace()
	return tr, err == nil
}

// recCollector gathers streamed record batches into whole columns,
// copying each batch (readers reuse their buffers) and counting them.
type recCollector struct {
	recs    emu.RecBatch
	batches int
}

func (c *recCollector) ConsumeRecs(b emu.RecBatch) {
	c.batches++
	c.recs.Idx = append(c.recs.Idx, b.Idx...)
	c.recs.Next = append(c.recs.Next, b.Next...)
	c.recs.Op = append(c.recs.Op, b.Op...)
	c.recs.WBytes = append(c.recs.WBytes, b.WBytes...)
	c.recs.Flags = append(c.recs.Flags, b.Flags...)
	c.recs.Addr = append(c.recs.Addr, b.Addr...)
	c.recs.Value = append(c.recs.Value, b.Value...)
	c.recs.SrcA = append(c.recs.SrcA, b.SrcA...)
	c.recs.SrcB = append(c.recs.SrcB, b.SrcB...)
}

// multiChunkProgram is miniProgram with its loop stretched past several
// trace chunks, so a streamed read delivers more than one batch.
func multiChunkProgram(t *testing.T) *prog.Program {
	t.Helper()
	p, err := asm.Assemble(strings.Replace(miniProgram, "cmplt r4, r2, #10", "cmplt r4, r2, #20000", 1))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestReadTraceStreamsChunks: a streamed read delivers exactly the
// captured record stream, one batch per trace chunk, and leaves the
// object in place.
func TestReadTraceStreamsChunks(t *testing.T) {
	p := multiChunkProgram(t)
	id := ProgramIdentity(p)
	tr := capture(t, p)
	if tr.Len() <= 2*emu.TraceChunkEvents {
		t.Fatalf("trace has %d records, want more than two chunks", tr.Len())
	}
	var want recCollector
	tr.Records(&want)

	s := NewStore(newMemBackend())
	key := TraceKey("multi", "base", "train", id)
	if err := s.PutTrace(key, tr, id); err != nil {
		t.Fatal(err)
	}
	var got recCollector
	if !s.ReadTrace(key, p, id, &got) {
		t.Fatal("sound trace did not stream")
	}
	if !reflect.DeepEqual(got.recs, want.recs) {
		t.Fatal("streamed records differ from the captured trace")
	}
	if chunks := int((tr.Len() + emu.TraceChunkEvents - 1) / emu.TraceChunkEvents); got.batches != chunks {
		t.Errorf("%d batches, want %d (one per chunk)", got.batches, chunks)
	}
	if _, ok := s.Get(key); !ok {
		t.Error("a sound object was dropped")
	}
	if st := s.Stats(); st.Rejects != 0 {
		t.Errorf("a sound object was rejected: %+v", st)
	}
}

// TestReadTraceRejectsBeforeDelivery: a blob whose checksum is intact but
// whose last chunk holds one record that does not validate against the
// program delivers nothing — every record is checked before the first
// batch reaches the sink — and the object is dropped as a reject.
func TestReadTraceRejectsBeforeDelivery(t *testing.T) {
	p := multiChunkProgram(t)
	id := ProgramIdentity(p)
	tr := capture(t, p)
	blob := EncodeTrace(tr, id)
	n := int(tr.Len())
	blob[colOffsets(n).op+n-1] ^= 0x7F // the last record's opcode
	fixCRC(blob)

	s := NewStore(newMemBackend())
	key := TraceKey("multi", "base", "train", id)
	if err := s.Put(key, blob); err != nil {
		t.Fatal(err)
	}
	var got recCollector
	if s.ReadTrace(key, p, id, &got) {
		t.Fatal("a blob with an invalid record streamed")
	}
	if got.batches != 0 {
		t.Errorf("%d batches reached the sink before the reject, want 0", got.batches)
	}
	if _, ok := s.Get(key); ok {
		t.Error("the invalid object was not dropped")
	}
	if st := s.Stats(); st.Rejects != 1 {
		t.Errorf("%d rejects, want 1", st.Rejects)
	}
}
