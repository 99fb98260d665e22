package tracework_test

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"

	"opgate/internal/emu"
	"opgate/internal/store"
	"opgate/internal/tracework"
)

// FuzzTraceIngest throws arbitrary bytes at the ingestion frontend — the
// exact surface opgated's upload API and ogtrace import expose to
// untrusted input. The invariants: Ingest never panics; anything it
// rejects is an error; anything it accepts yields a skeleton whose
// canonical blob is a fixed point of ingestion (same identity, same
// bytes), equals a full re-encoding of the records under the skeleton
// identity, and replays exactly the advertised number of events without
// faulting. Seed corpus under
// testdata/fuzz/FuzzTraceIngest, regenerable with
// `go test ./internal/tracework -run TestFuzzIngestCorpusSeeds -regen-corpus`.
func FuzzTraceIngest(f *testing.F) {
	for _, seed := range ingestCorpusSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ing, err := tracework.Ingest(data)
		if err != nil {
			return // rejected cleanly
		}
		re, err := tracework.Ingest(ing.Canonical)
		if err != nil {
			t.Fatalf("accepted input's canonical blob does not re-ingest: %v", err)
		}
		if re.Identity != ing.Identity {
			t.Fatalf("identity not stable across re-ingestion: %s != %s", re.Identity, ing.Identity)
		}
		if !bytes.Equal(re.Canonical, ing.Canonical) {
			t.Fatal("canonical encoding is not a fixed point")
		}
		if want := oracleCanonical(t, data); !bytes.Equal(ing.Canonical, want) {
			t.Fatal("canonical blob differs from re-encoding the records under the skeleton identity")
		}
		tr, err := store.DecodeTrace(ing.Canonical, ing.Program, ing.Identity)
		if err != nil {
			t.Fatalf("canonical blob does not decode against its skeleton: %v", err)
		}
		var replayed int
		tr.Replay(emu.FuncSink(func(emu.Event) { replayed++ }))
		if replayed != ing.Events {
			t.Fatalf("replay delivered %d events, ingestion advertises %d", replayed, ing.Events)
		}
	})
}

// ingestCorpusSeeds returns the deterministic seed inputs: a valid
// native blob, its canonical skeleton re-encoding, and one
// representative of each ingestion-specific rejection class (codec-level
// damage is FuzzTraceCodec's corpus; these target the record validation
// only ingestion performs).
func ingestCorpusSeeds() [][]byte {
	enc := nativeBlob()
	ing, err := tracework.Ingest(enc)
	if err != nil {
		panic(err)
	}
	n := ing.Events
	const header = 48 // magic+version+reserved+identity+count

	// An opcode beyond the ISA: op column starts at header+8n.
	badOp := append([]byte{}, enc...)
	badOp[header+8*n] = 0xFF
	fixCRC(badOp)

	// A flags byte with undefined bits set: flags column at header+10n.
	badFlags := append([]byte{}, enc...)
	badFlags[header+10*n] = 0xFF
	fixCRC(badFlags)

	// A static-table conflict: two records at one idx with different
	// widths. Point record 1's idx at record 0's (idx column at header)
	// while their wbytes differ — if they happen to agree, perturb
	// record 1's wbytes too (column at header+9n).
	conflict := append([]byte{}, enc...)
	if n >= 2 {
		copy(conflict[header+4:header+8], conflict[header:header+4])
		if conflict[header+9*n] == conflict[header+9*n+1] {
			conflict[header+9*n+1] ^= 0x0C
		}
		fixCRC(conflict)
	}

	return [][]byte{
		enc,
		ing.Canonical,
		badOp,
		badFlags,
		conflict,
		enc[:len(enc)/2],
		{},
	}
}

// fixCRC recomputes the codec's v2 trailer — CRC-32C (high half) and
// CRC-32/IEEE (low half) of every preceding byte — after a deliberate
// payload edit.
func fixCRC(b []byte) {
	body := b[:len(b)-8]
	sum := uint64(crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli)))<<32 | uint64(crc32.ChecksumIEEE(body))
	binary.LittleEndian.PutUint64(b[len(b)-8:], sum)
}
