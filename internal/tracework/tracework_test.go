package tracework_test

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"opgate/internal/asm"
	"opgate/internal/emu"
	"opgate/internal/prog"
	"opgate/internal/store"
	"opgate/internal/tracework"
	"opgate/internal/workload"
)

// miniProgram is a small but field-complete workload: memory traffic,
// taken and not-taken branches, a call, and output, so ingestion sees
// every record shape while the blobs stay corpus-sized.
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

func mustMiniProgram() *prog.Program {
	p, err := asm.Assemble(miniProgram)
	if err != nil {
		panic(err)
	}
	return p
}

// nativeBlob captures the mini program's trace and encodes it under the
// program's own identity — the shape of a blob exported from a native
// run (or an external tracer).
func nativeBlob() []byte {
	p := mustMiniProgram()
	rec := emu.NewTraceRecorder(p)
	m := emu.New(p)
	m.Sink = rec
	if err := m.Run(); err != nil {
		panic(err)
	}
	tr, err := rec.Trace()
	if err != nil {
		panic(err)
	}
	return store.EncodeTrace(tr, store.ProgramIdentity(p))
}

// TestIngestRoundTrip: a native blob ingests; the skeleton accepts every
// record; replay delivers the full event stream with column-identical
// values; and ingestion is idempotent — the canonical blob re-ingests to
// the same identity and the same bytes.
func TestIngestRoundTrip(t *testing.T) {
	enc := nativeBlob()
	ing, err := tracework.Ingest(enc)
	if err != nil {
		t.Fatal(err)
	}
	if ing.Events == 0 || ing.StaticIns == 0 {
		t.Fatalf("empty ingestion: %d events, %d static", ing.Events, ing.StaticIns)
	}
	// The skeleton's identity differs from the native binary's — the
	// skeleton has no source program, data segment or untaken path.
	nativeRecs, nativeID, err := store.DecodeTraceRecords(enc)
	if err != nil {
		t.Fatal(err)
	}
	if ing.Identity == nativeID {
		t.Error("skeleton identity equals native identity; expected a distinct content address")
	}
	// Replay is column-exact: same event count, same widths and values.
	tr, err := store.DecodeTrace(ing.Canonical, ing.Program, ing.Identity)
	if err != nil {
		t.Fatalf("canonical blob does not decode against its skeleton: %v", err)
	}
	var got []emu.Event
	tr.Replay(emu.FuncSink(func(ev emu.Event) { got = append(got, ev) }))
	if len(got) != nativeRecs.Len() {
		t.Fatalf("replay delivered %d events, native trace has %d", len(got), nativeRecs.Len())
	}
	for i, ev := range got {
		if int32(ev.Idx) != nativeRecs.Idx[i] || ev.Value != nativeRecs.Value[i] || ev.Addr != nativeRecs.Addr[i] {
			t.Fatalf("event %d drifted: got idx=%d value=%d addr=%d", i, ev.Idx, ev.Value, ev.Addr)
		}
	}
	// Idempotence: canonical bytes are a fixed point of ingestion.
	re, err := tracework.Ingest(ing.Canonical)
	if err != nil {
		t.Fatalf("canonical blob does not re-ingest: %v", err)
	}
	if re.Identity != ing.Identity {
		t.Errorf("identity drifted across re-ingestion: %s != %s", re.Identity, ing.Identity)
	}
	if !bytes.Equal(re.Canonical, ing.Canonical) {
		t.Error("canonical encoding is not a fixed point")
	}
}

// TestIngestRejects: malformed blobs come back as errors, never panics
// or half-built registrations.
func TestIngestRejects(t *testing.T) {
	enc := nativeBlob()
	cases := map[string][]byte{
		"empty":     {},
		"magic":     []byte("OGTR"),
		"truncated": enc[:len(enc)/2],
		"garbage":   bytes.Repeat([]byte{0xA5}, 128),
	}
	for name, data := range cases {
		if _, err := tracework.Ingest(data); err == nil {
			t.Errorf("%s blob ingested without error", name)
		}
	}
}

// TestLibrary: Put registers blob + metadata + index; Lookup and
// Skeleton serve them back; unknown names and classes return
// *NotImportedError; the blob lands under the exact TraceKey the
// harness probes.
func TestLibrary(t *testing.T) {
	st, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	lib := tracework.NewLibrary(st)
	ing, err := tracework.Ingest(nativeBlob())
	if err != nil {
		t.Fatal(err)
	}
	name := workload.TraceName("mini")
	if err := lib.Put(name, workload.Train, ing); err != nil {
		t.Fatal(err)
	}

	m, err := lib.Lookup(name, workload.Train)
	if err != nil {
		t.Fatal(err)
	}
	if m.Events != ing.Events || m.StaticIns != ing.StaticIns || m.Identity != ing.Identity.String() {
		t.Errorf("metadata mismatch: %+v", m)
	}

	p, id, err := lib.Skeleton(name, workload.Train)
	if err != nil {
		t.Fatal(err)
	}
	if id != ing.Identity || store.ProgramIdentity(p) != ing.Identity {
		t.Error("skeleton identity drifted through the library")
	}

	// The harness's ordinary trace path must hit the stored blob.
	key := store.TraceKey(name, "base", workload.Train.String(), id)
	var events eventCounter
	if !st.ReadTrace(key, p, id, &events) {
		t.Error("blob not under the harness TraceKey")
	} else if int(events) != ing.Events {
		t.Errorf("stored trace has %d events, want %d", events, ing.Events)
	}

	var nie *tracework.NotImportedError
	if _, err := lib.Lookup(workload.TraceName("ghost"), workload.Train); !errors.As(err, &nie) {
		t.Errorf("missing name: got %v, want *NotImportedError", err)
	}
	if _, _, err := lib.Skeleton(name, workload.Ref); !errors.As(err, &nie) {
		t.Errorf("missing class: got %v, want *NotImportedError", err)
	}
	if err := lib.Put("trace:bad name", workload.Train, ing); err == nil {
		t.Error("Put accepted an invalid registry name")
	}

	entries := lib.List()
	if len(entries) != 1 || entries[0].Name != name || entries[0].Class != "train" {
		t.Errorf("index = %+v, want one train entry for %s", entries, name)
	}
	// Re-import is idempotent in the index too.
	if err := lib.Put(name, workload.Train, ing); err != nil {
		t.Fatal(err)
	}
	if entries := lib.List(); len(entries) != 1 {
		t.Errorf("re-import duplicated the index: %+v", entries)
	}
}

// eventCounter is a sink that counts the records streamed into it.
type eventCounter int

func (c *eventCounter) ConsumeRecs(b emu.RecBatch) { *c += eventCounter(len(b.Idx)) }

// oracleCanonical is the canonical blob built the long way: decode the
// records, synthesize the skeleton, rebuild a trace over it and encode
// that trace under the skeleton's identity.
func oracleCanonical(t *testing.T, data []byte) []byte {
	t.Helper()
	recs, _, err := store.DecodeTraceRecords(data)
	if err != nil {
		t.Fatal(err)
	}
	p, err := emu.NewProgramFromTrace(recs)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := emu.NewTraceFromRecords(p, recs)
	if err != nil {
		t.Fatal(err)
	}
	return store.EncodeTrace(tr, store.ProgramIdentity(p))
}

// exportBlob writes what `ogtrace export` writes for a registry workload:
// the captured trace encoded under the built binary's identity.
func exportBlob(t *testing.T, name string, class workload.InputClass) []byte {
	t.Helper()
	w, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	p, err := w.Build(class)
	if err != nil {
		t.Fatal(err)
	}
	rec := emu.NewTraceRecorder(p)
	m := emu.New(p)
	defer m.Release()
	m.Sink = rec
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	tr, err := rec.Trace()
	if err != nil {
		t.Fatal(err)
	}
	return store.EncodeTrace(tr, store.ProgramIdentity(p))
}

// TestCanonicalMatchesReencoding: the canonical blob Ingest builds by
// rewriting the header identity and trailer of its input is byte-equal
// to re-encoding the decoded records under the skeleton identity, over
// every accepted entry of the committed FuzzTraceIngest corpus and a
// native export of a registry workload.
func TestCanonicalMatchesReencoding(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzTraceIngest", "*"))
	if err != nil {
		t.Fatal(err)
	}
	blobs := map[string][]byte{"export syn:narrow/small/5": exportBlob(t, "syn:narrow/small/5", workload.Train)}
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		// A corpus file is "go test fuzz v1" and one []byte("...") line.
		lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
		if len(lines) != 2 || !strings.HasPrefix(lines[1], "[]byte(") {
			t.Fatalf("%s: unexpected corpus file format", f)
		}
		s, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")"))
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		blobs[f] = []byte(s)
	}
	accepted := 0
	for name, data := range blobs {
		ing, err := tracework.Ingest(data)
		if err != nil {
			continue
		}
		accepted++
		if !bytes.Equal(ing.Canonical, oracleCanonical(t, data)) {
			t.Errorf("%s: canonical blob differs from the re-encoding", name)
		}
	}
	if accepted < 3 {
		t.Fatalf("only %d inputs ingested; want the export and the corpus's valid seeds", accepted)
	}
}
