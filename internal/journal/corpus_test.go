package journal

import (
	"encoding/binary"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

var regenCorpus = flag.Bool("regen-corpus", false, "rewrite the committed FuzzJournalDecode seed corpus")

// fuzzCorpusSeeds returns the deterministic seed inputs: a valid
// multi-record stream plus one representative of each damage class, so
// the fuzzer starts at every rejection branch, and a sweep record with a
// threshold grid. New seeds go last: an unchanged earlier seed file shows
// that records written before a format extension still decode as they
// did.
func fuzzCorpusSeeds() [][]byte {
	full := Record{
		Seq: 1, Time: 1700000000000000000, Job: "job-000001", Status: "queued",
		Experiment: "fig8", Threshold: 50,
		Synthetics: []string{"syn:narrow/small/1", "syn:pointer/medium/7"},
		ReportKey:  "deadbeef", Err: "",
	}
	done := full
	done.Seq, done.Status, done.Err = 2, "failed", "injected: boom"

	var stream []byte
	stream = append(stream, EncodeRecord(full)...)
	stream = append(stream, EncodeRecord(done)...)

	torn := append([]byte{}, stream[:len(stream)-7]...)
	flipped := append([]byte{}, stream...)
	flipped[frameHeaderSize+3] ^= 0x01 // payload byte: CRC catches it
	lengthLies := append([]byte{}, stream...)
	binary.LittleEndian.PutUint32(lengthLies, maxPayload+1)
	backwards := append([]byte{}, EncodeRecord(done)...)
	backwards = append(backwards, EncodeRecord(full)...) // seq 2 then 1
	sweep := full
	sweep.Experiment, sweep.Threshold, sweep.Thresholds = "fig4", 0, []float64{110, 50}

	return [][]byte{
		stream,
		torn,
		flipped,
		lengthLies,
		backwards,
		{0x01, 0x00, 0x00, 0x00}, // header shorter than frameHeaderSize
		{},
		EncodeRecord(sweep), // the optional grid field, after the seeds above
	}
}

// TestJournalFuzzCorpusSeeds pins the committed fuzz corpus to
// fuzzCorpusSeeds: plain `go test` replays the committed files through
// FuzzJournalDecode, and this test guarantees they stay in sync with the
// wire format (rewrite with -regen-corpus after a deliberate change).
func TestJournalFuzzCorpusSeeds(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzJournalDecode")
	for i, e := range fuzzCorpusSeeds() {
		name := filepath.Join(dir, fmt.Sprintf("seed-%02d", i))
		content := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", e)
		if *regenCorpus {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(name, []byte(content), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		got, err := os.ReadFile(name)
		if err != nil {
			t.Fatalf("missing corpus entry (regenerate with -regen-corpus): %v", err)
		}
		if string(got) != content {
			t.Errorf("%s is stale (regenerate with -regen-corpus)", name)
		}
	}
}
