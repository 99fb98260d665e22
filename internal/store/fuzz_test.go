package store

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"

	"opgate/internal/emu"
)

// FuzzTraceCodec throws arbitrary bytes at the trace decoder. The
// invariants: the decoder never panics; anything it rejects is an error;
// anything it accepts is the canonical encoding of a valid trace —
// re-encoding reproduces the input bit-for-bit, and replay delivers
// exactly the advertised number of events without faulting. The streamed
// reader (Store.ReadTrace) accepts exactly the blobs DecodeTrace accepts,
// delivers the same records, and delivers nothing when it refuses. Seed corpus:
// one valid encoding plus damaged derivatives under
// testdata/fuzz/FuzzTraceCodec, regenerable with
// `go test ./internal/store -run TestFuzzCorpusSeeds -regen-corpus`.
func FuzzTraceCodec(f *testing.F) {
	p := mustMiniProgram()
	id := ProgramIdentity(p)
	for _, seed := range fuzzCorpusSeeds() {
		f.Add(seed)
	}
	st := NewStore(newMemBackend())
	key := TraceKey("mini", "base", "train", id)
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := st.Put(key, data); err != nil {
			t.Fatal(err)
		}
		var streamed recCollector
		read := st.ReadTrace(key, p, id, &streamed)
		tr, err := DecodeTrace(data, p, id)
		if read != (err == nil) {
			t.Fatalf("ReadTrace accepted=%v, DecodeTrace error %v", read, err)
		}
		if err != nil {
			if streamed.batches != 0 {
				t.Fatalf("refused blob delivered %d batches", streamed.batches)
			}
			return // rejected cleanly
		}
		var decoded recCollector
		tr.Records(&decoded)
		if !reflect.DeepEqual(streamed.recs, decoded.recs) {
			t.Fatal("ReadTrace and DecodeTrace yield different records")
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
