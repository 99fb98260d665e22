package store

import (
	"bytes"
	"encoding/binary"
	"hash/crc64"
	"reflect"
	"testing"

	"opgate/internal/asm"
	"opgate/internal/emu"
	"opgate/internal/prog"
	"opgate/internal/progen"
)

// miniProgram is a small but field-complete workload: memory traffic,
// taken and not-taken branches, a call, and output, so every record column
// carries nontrivial values. Its trace (~60 events) keeps the committed
// fuzz corpus small.
const miniProgram = `
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

// mustMiniProgram assembles miniProgram (shared with the fuzz target,
// which has no *testing.T at seed time).
func mustMiniProgram() *prog.Program {
	p, err := asm.Assemble(miniProgram)
	if err != nil {
		panic(err)
	}
	return p
}

// capture runs p once under a TraceRecorder and returns the packed trace.
func capture(t *testing.T, p *prog.Program) *emu.Trace {
	t.Helper()
	tr, err := captureTrace(p)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func captureTrace(p *prog.Program) (*emu.Trace, error) {
	rec := emu.NewTraceRecorder(p)
	m := emu.New(p)
	m.Sink = rec
	if err := m.Run(); err != nil {
		return nil, err
	}
	return rec.Trace()
}

// collectEvents replays a trace into a flat event slice.
func collectEvents(tr *emu.Trace) []emu.Event {
	var events []emu.Event
	tr.Replay(emu.FuncSink(func(ev emu.Event) { events = append(events, ev) }))
	return events
}

// fixCRC recomputes the trailer after a deliberate header/payload edit.
func fixCRC(b []byte) {
	binary.LittleEndian.PutUint64(b[len(b)-codecTrailerSize:], trailerSum(b[:len(b)-codecTrailerSize]))
}

// v1Frame re-frames a v2 encoding the way format version 1 wrote it: the
// same header and columns under version 1 and a CRC-64/ECMA trailer. The
// codec no longer reads it; tests use it to prove old objects are refused.
func v1Frame(enc []byte) []byte {
	b := append([]byte{}, enc...)
	binary.LittleEndian.PutUint16(b[4:], 1)
	crc := crc64.Checksum(b[:len(b)-codecTrailerSize], crc64.MakeTable(crc64.ECMA))
	binary.LittleEndian.PutUint64(b[len(b)-codecTrailerSize:], crc)
	return b
}

// TestTraceCodecRoundTrip is the codec's tentpole invariant: decoding an
// encoded trace yields a trace whose replay is field-for-field the
// original stream, and whose re-encoding is bit-identical to the first.
func TestTraceCodecRoundTrip(t *testing.T) {
	progs := map[string]*prog.Program{"mini": mustMiniProgram()}
	// A medium synthetic fills most of one packed chunk; the multi-chunk
	// synthetic crosses the chunk boundary, exercising multi-chunk
	// encode/restore.
	mp, err := progen.Generate(progen.Families()[0], 7, progen.Medium, false)
	if err != nil {
		t.Fatal(err)
	}
	progs["medium-synthetic"] = mp
	progs["multi-chunk-synthetic"] = multiChunkSynthetic(t)

	for name, p := range progs {
		t.Run(name, func(t *testing.T) {
			tr := capture(t, p)
			id := ProgramIdentity(p)
			enc := EncodeTrace(tr, id)

			dec, err := DecodeTrace(enc, p, id)
			if err != nil {
				t.Fatalf("decode of a fresh encoding failed: %v", err)
			}
			if dec.Len() != tr.Len() || dec.Bytes() != tr.Bytes() {
				t.Fatalf("decoded trace shape drifted: len %d/%d, bytes %d/%d",
					dec.Len(), tr.Len(), dec.Bytes(), tr.Bytes())
			}
			if got, want := collectEvents(dec), collectEvents(tr); !reflect.DeepEqual(got, want) {
				t.Fatal("decoded trace replays a different event stream")
			}
			if re := EncodeTrace(dec, id); !bytes.Equal(re, enc) {
				t.Fatalf("re-encode is not bit-identical (%d vs %d bytes)", len(re), len(enc))
			}
		})
	}
}

// TestDecodeRejectsDefects feeds the decoder every class of damaged input
// and expects a clean error each time — never a panic, never acceptance.
func TestDecodeRejectsDefects(t *testing.T) {
	p := mustMiniProgram()
	id := ProgramIdentity(p)
	enc := EncodeTrace(capture(t, p), id)

	cases := map[string]func() []byte{
		"empty":             func() []byte { return nil },
		"truncated-header":  func() []byte { return enc[:codecHeaderSize-1] },
		"truncated-payload": func() []byte { return enc[:len(enc)-codecTrailerSize-5] },
		"trailing-garbage":  func() []byte { return append(append([]byte{}, enc...), 0) },
		"bad-magic": func() []byte {
			b := append([]byte{}, enc...)
			b[0] ^= 0xFF
			fixCRC(b)
			return b
		},
		"bad-version": func() []byte {
			b := append([]byte{}, enc...)
			binary.LittleEndian.PutUint16(b[4:], codecVersion+1)
			fixCRC(b)
			return b
		},
		"reserved-bytes": func() []byte {
			b := append([]byte{}, enc...)
			b[6] = 0xAB
			fixCRC(b)
			return b
		},
		"identity-mismatch": func() []byte {
			b := append([]byte{}, enc...)
			b[8] ^= 0xFF
			fixCRC(b)
			return b
		},
		"event-count-lies": func() []byte {
			b := append([]byte{}, enc...)
			n := binary.LittleEndian.Uint64(b[40:])
			binary.LittleEndian.PutUint64(b[40:], n+1)
			fixCRC(b)
			return b
		},
		"absurd-event-count": func() []byte {
			b := append([]byte{}, enc...)
			binary.LittleEndian.PutUint64(b[40:], ^uint64(0))
			fixCRC(b)
			return b
		},
		"checksum-mismatch": func() []byte {
			b := append([]byte{}, enc...)
			b[codecHeaderSize] ^= 0x01 // payload flip, stale trailer
			return b
		},
		"v1-framing": func() []byte { return v1Frame(enc) },
		"index-out-of-range": func() []byte {
			b := append([]byte{}, enc...)
			binary.LittleEndian.PutUint32(b[codecHeaderSize:], 1<<20)
			fixCRC(b)
			return b
		},
	}
	for name, make := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := DecodeTrace(make(), p, id); err == nil {
				t.Fatal("decoder accepted damaged input")
			}
		})
	}
}

// TestDecodeRejectsEverySingleBitFlip: the trailer catches any one
// flipped bit anywhere in the blob, header and trailer included. Checked
// exhaustively over the mini workload's encoding.
func TestDecodeRejectsEverySingleBitFlip(t *testing.T) {
	p := mustMiniProgram()
	id := ProgramIdentity(p)
	enc := EncodeTrace(capture(t, p), id)
	b := append([]byte{}, enc...)
	for i := range b {
		for bit := 0; bit < 8; bit++ {
			b[i] ^= 1 << bit
			if _, err := DecodeTrace(b, p, id); err == nil {
				t.Fatalf("decoder accepted the blob with byte %d bit %d flipped", i, bit)
			}
			b[i] ^= 1 << bit
		}
	}
}

// multiChunkSynthetic is a generated workload whose trace (65543 events)
// fills two packed chunks and spills a few records into a third.
func multiChunkSynthetic(t *testing.T) *prog.Program {
	t.Helper()
	p, err := progen.Generate(progen.Pointer, 7, progen.Large, false)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// batches collects the record batches a trace delivers, in order.
func batches(tr *emu.Trace) []emu.RecBatch {
	var bs []emu.RecBatch
	tr.Records(emu.RecFunc(func(b emu.RecBatch) { bs = append(bs, b) }))
	return bs
}

// TestRestoredTraceMatchesCapture: a decoded trace has the captured
// trace's length, byte accounting and batch boundaries, so the trace
// budget and every record consumer treat the two alike.
func TestRestoredTraceMatchesCapture(t *testing.T) {
	p := multiChunkSynthetic(t)
	tr := capture(t, p)
	id := ProgramIdentity(p)
	dec, err := DecodeTrace(EncodeTrace(tr, id), p, id)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Len() != tr.Len() || dec.Bytes() != tr.Bytes() {
		t.Fatalf("len %d/%d, bytes %d/%d", dec.Len(), tr.Len(), dec.Bytes(), tr.Bytes())
	}
	got, want := batches(dec), batches(tr)
	if len(want) < 2 {
		t.Fatalf("capture has %d batches; the test needs a multi-chunk trace", len(want))
	}
	if len(got) != len(want) {
		t.Fatalf("decoded trace delivers %d batches, capture %d", len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("batch %d differs (len %d vs %d)", i, got[i].Len(), want[i].Len())
		}
	}
}

// TestDecodedTraceOwnsItsRecords: the decoded trace shares no storage
// with the blob it came from, and a consumer appending to a delivered
// batch cannot write into the next one.
func TestDecodedTraceOwnsItsRecords(t *testing.T) {
	p := multiChunkSynthetic(t)
	tr := capture(t, p)
	id := ProgramIdentity(p)
	enc := EncodeTrace(tr, id)
	dec, err := DecodeTrace(enc, p, id)
	if err != nil {
		t.Fatal(err)
	}
	want := batches(tr)

	for i := range enc {
		enc[i] = 0xFF
	}
	if !reflect.DeepEqual(batches(dec), want) {
		t.Fatal("scribbling over the blob changed the decoded trace's records")
	}

	dec.Records(emu.RecFunc(func(b emu.RecBatch) {
		_ = append(b.Idx, -1)
		_ = append(b.Next, -1)
		_ = append(b.Op, 0xFF)
		_ = append(b.WBytes, 0xFF)
		_ = append(b.Flags, 0xFF)
		_ = append(b.Addr, -1)
		_ = append(b.Value, -1)
		_ = append(b.SrcA, -1)
		_ = append(b.SrcB, -1)
	}))
	if !reflect.DeepEqual(batches(dec), want) {
		t.Fatal("appending to a delivered batch overwrote the records after it")
	}
}

// TestDecodeRejectsWrongProgram rebinding: a trace must not decode against
// a program it was not captured from, even when the caller vouches for the
// stored identity bytes.
func TestDecodeRejectsWrongProgram(t *testing.T) {
	p := mustMiniProgram()
	id := ProgramIdentity(p)
	enc := EncodeTrace(capture(t, p), id)

	other, err := asm.Assemble(".text\n.func main\n\tadd r1, r1, #1\n\thalt\n")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeTrace(enc, other, id); err == nil {
		t.Fatal("decoder bound a trace to a program it was not captured from")
	}
}

// TestProgramIdentity pins the identity's sensitivity: identical rebuilds
// agree; any code or data difference disagrees.
func TestProgramIdentity(t *testing.T) {
	a, b := mustMiniProgram(), mustMiniProgram()
	if ProgramIdentity(a) != ProgramIdentity(b) {
		t.Fatal("identical programs derived different identities")
	}
	mutated := mustMiniProgram()
	mutated.Ins[0].Imm++
	if ProgramIdentity(a) == ProgramIdentity(mutated) {
		t.Fatal("instruction mutation did not change the identity")
	}
	dataMutated := mustMiniProgram()
	dataMutated.Data = append(append([]byte{}, dataMutated.Data...), 1)
	if ProgramIdentity(a) == ProgramIdentity(dataMutated) {
		t.Fatal("data mutation did not change the identity")
	}
}

// TestKeyDerivation pins the key scheme: parts are domain-separated, and
// every tuple element lands in the address.
func TestKeyDerivation(t *testing.T) {
	id := ProgramIdentity(mustMiniProgram())
	base := TraceKey("compress", "base", "train", id)
	if _, err := ParseKey(string(base)); err != nil {
		t.Fatalf("derived key does not parse: %v", err)
	}
	for name, other := range map[string]Key{
		"workload": TraceKey("gcc", "base", "train", id),
		"variant":  TraceKey("compress", "vrp", "train", id),
		"class":    TraceKey("compress", "base", "ref", id),
		"identity": TraceKey("compress", "base", "train", Hash{1}),
		"kind":     ReportKey("compress", false, 0, []string{"base", "train"}, id),
	} {
		if other == base {
			t.Fatalf("%s does not contribute to the trace key", name)
		}
	}
	if ReportKey("fig8", true, 50, nil, id) == ReportKey("fig8", true, 50, []string{"syn:narrow/small/1"}, id) {
		t.Fatal("synthetic list does not contribute to the report key")
	}
	if ReportKey("fig8", true, 50, []string{"ab", "c"}, id) == ReportKey("fig8", true, 50, []string{"a", "bc"}, id) {
		t.Fatal("report key parts are not length-separated")
	}
	if ReportKey("fig8", true, 50, nil, id) == ReportKey("fig8", true, 50, nil, Hash{1}) {
		t.Fatal("code identity does not contribute to the report key")
	}
	report := ReportKey("fig8", true, 50, nil, id)
	for name, other := range map[string]Key{
		"experiment": ReportKey("fig9", true, 50, nil, id),
		"threshold":  ReportKey("fig8", true, 110, nil, id),
		"quick":      ReportKey("fig8", false, 50, nil, id),
	} {
		if other == report {
			t.Errorf("report key insensitive to %s", name)
		}
	}
	sweep := SweepKey("fig6", true, []float64{110, 50}, nil, id)
	for name, other := range map[string]Key{
		"experiment": SweepKey("fig7", true, []float64{110, 50}, nil, id),
		"grid":       SweepKey("fig6", true, []float64{110, 50, 30}, nil, id),
		"order":      SweepKey("fig6", true, []float64{50, 110}, nil, id),
		"synthetics": SweepKey("fig6", true, []float64{110, 50}, []string{"syn:narrow/small/1"}, id),
	} {
		if other == sweep {
			t.Errorf("sweep key insensitive to %s", name)
		}
	}
	// A one-point sweep document and its single cell are distinct
	// objects; the cell lives under the report key.
	if SweepKey("fig4", true, []float64{65}, nil, id) == ReportKey("fig4", true, 65, nil, id) {
		t.Error("sweep document key collides with a single-cell report key")
	}
	if SelfIdentity() != SelfIdentity() || SelfIdentity() == (Hash{}) {
		t.Fatal("SelfIdentity is unstable or degenerate in-process")
	}
	if _, err := ParseKey("not-a-key"); err == nil {
		t.Fatal("ParseKey accepted a malformed key")
	}
	if _, err := ParseKey(string(base[:32])); err == nil {
		t.Fatal("ParseKey accepted a short key")
	}
}
