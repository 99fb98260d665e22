package store

import (
	"bytes"
	"encoding/binary"
	"testing"

	"opgate/internal/emu"
)

// FuzzTraceCodec throws arbitrary bytes at the trace decoder. The
// invariants: the decoder never panics; anything it rejects is an error;
// anything it accepts is the canonical encoding of a valid trace —
// re-encoding reproduces the input bit-for-bit, and replay delivers
// exactly the advertised number of events without faulting. Seed corpus:
// one valid encoding plus damaged derivatives under
// testdata/fuzz/FuzzTraceCodec, regenerable with
// `go test ./internal/store -run TestFuzzCorpusSeeds -regen-corpus`.
func FuzzTraceCodec(f *testing.F) {
	p := mustMiniProgram()
	id := ProgramIdentity(p)
	for _, seed := range fuzzCorpusSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := DecodeTrace(data, p, id)
		if err != nil {
			return // rejected cleanly
		}
		re := EncodeTrace(tr, id)
		if !bytes.Equal(re, data) {
			t.Fatalf("decoder accepted a non-canonical blob: re-encode is %d bytes, input %d", len(re), len(data))
		}
		var replayed int64
		tr.Replay(emu.FuncSink(func(emu.Event) { replayed++ }))
		if replayed != tr.Len() {
			t.Fatalf("replay delivered %d events, trace advertises %d", replayed, tr.Len())
		}
	})
}

// fuzzCorpusSeeds returns the deterministic seed inputs: the canonical
// encoding of the mini workload's trace, plus one representative of each
// damage class so the fuzzer starts at every rejection branch — including
// an intact blob in the retired v1 framing.
func fuzzCorpusSeeds() [][]byte {
	p := mustMiniProgram()
	tr, err := captureTrace(p)
	if err != nil {
		panic(err)
	}
	enc := EncodeTrace(tr, ProgramIdentity(p))

	truncated := append([]byte{}, enc[:len(enc)/2]...)
	flipped := append([]byte{}, enc...)
	flipped[codecHeaderSize] ^= 0x01
	countLies := append([]byte{}, enc...)
	binary.LittleEndian.PutUint64(countLies[40:], binary.LittleEndian.Uint64(countLies[40:])+1)
	fixCRC(countLies)

	return [][]byte{
		enc,
		truncated,
		flipped,
		countLies,
		[]byte(codecMagic),
		{},
		v1Frame(enc),
	}
}
