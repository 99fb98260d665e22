package journal

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"opgate/internal/store"
)

// isTerminal is the test stand-in for client.TerminalStatus (the journal
// takes the predicate as a seam to avoid owning the status machine).
func isTerminal(status string) bool {
	switch status {
	case "done", "failed", "timeout", "canceled", "aborted":
		return true
	}
	return false
}

func openTest(t *testing.T, path string, budget int64) (*Journal, []Record) {
	t.Helper()
	j, recs, err := Open(path, budget, isTerminal, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.Close() })
	return j, recs
}

func rec(job, status string) Record {
	return Record{
		Job: job, Status: status, Experiment: "fig8", Threshold: 50,
		Synthetics: []string{"syn:narrow/small/1", "syn:wide/small/2"},
		ReportKey:  "0123456789abcdef", Err: "",
	}
}

// TestAppendReplayRoundTrip: records appended to a journal come back from
// a fresh Open byte-for-byte equal, in order, with monotonic sequence
// numbers assigned.
func TestAppendReplayRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.log")
	j, recs := openTest(t, path, 0)
	if len(recs) != 0 {
		t.Fatalf("fresh journal replayed %d records", len(recs))
	}
	want := []Record{rec("job-000001", "queued"), rec("job-000001", "running"), rec("job-000002", "queued"), rec("job-000001", "done")}
	for i := range want {
		seq, err := j.Append(want[i])
		if err != nil {
			t.Fatal(err)
		}
		if seq != uint64(i+1) {
			t.Fatalf("append %d assigned seq %d", i, seq)
		}
	}
	j.Close()

	_, got := openTest(t, path, 0)
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i, g := range got {
		if g.Seq != uint64(i+1) || g.Time == 0 {
			t.Fatalf("record %d: seq=%d time=%d", i, g.Seq, g.Time)
		}
		w := want[i]
		w.Seq, w.Time = g.Seq, g.Time
		if !reflect.DeepEqual(g, w) {
			t.Fatalf("record %d mismatch:\n got %+v\nwant %+v", i, g, w)
		}
	}
}

// TestTornTailIsSkippedAndRepaired: a partial final frame (the expected
// SIGKILL artifact) replays as if absent, Open repairs the file in place,
// and subsequent appends land readable.
func TestTornTailIsSkippedAndRepaired(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.log")
	j, _ := openTest(t, path, 0)
	if _, err := j.Append(rec("job-000001", "queued")); err != nil {
		t.Fatal(err)
	}
	if _, err := j.Append(rec("job-000001", "running")); err != nil {
		t.Fatal(err)
	}
	j.Close()

	// Tear the tail: append half of a valid frame.
	full := EncodeRecord(Record{Seq: 99, Job: "job-000009", Status: "queued"})
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(full[:len(full)/2]); err != nil {
		t.Fatal(err)
	}
	f.Close()

	j2, recs := openTest(t, path, 0)
	if len(recs) != 2 {
		t.Fatalf("replayed %d records through a torn tail, want 2", len(recs))
	}
	// The repair dropped the torn bytes: a third append is readable.
	if _, err := j2.Append(rec("job-000002", "queued")); err != nil {
		t.Fatal(err)
	}
	j2.Close()
	_, recs = openTest(t, path, 0)
	if len(recs) != 3 {
		t.Fatalf("replayed %d records after repair+append, want 3", len(recs))
	}
}

// TestCorruptMidRecordStopsReplay: a CRC-failing record invalidates it
// and everything after it — damaged bytes are never served as records.
func TestCorruptMidRecordStopsReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.log")
	j, _ := openTest(t, path, 0)
	for i, st := range []string{"queued", "running", "done"} {
		if _, err := j.Append(rec("job-00000"+string(rune('1'+i)), st)); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one payload byte of the second frame.
	_, n1, err := DecodeRecord(data)
	if err != nil {
		t.Fatal(err)
	}
	data[n1+frameHeaderSize+2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	_, recs := openTest(t, path, 0)
	if len(recs) != 1 {
		t.Fatalf("replayed %d records past corruption, want 1", len(recs))
	}
}

// TestCompactionKeepsOnlyNonTerminal: once the log exceeds its budget,
// terminal jobs vanish, non-terminal jobs survive as their latest record,
// and sequence numbers keep climbing across the rewrite.
func TestCompactionKeepsOnlyNonTerminal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.log")
	j, _ := openTest(t, path, 512) // tiny budget: compact almost every append
	var lastSeq uint64
	for i := 0; i < 50; i++ {
		id := "job-" + string(rune('a'+i%26)) + string(rune('0'+i/26))
		for _, st := range []string{"queued", "running", "done"} {
			seq, err := j.Append(rec(id, st))
			if err != nil {
				t.Fatal(err)
			}
			if seq <= lastSeq {
				t.Fatalf("seq went backwards: %d after %d", seq, lastSeq)
			}
			lastSeq = seq
		}
	}
	// One job left open.
	if _, err := j.Append(rec("job-open", "queued")); err != nil {
		t.Fatal(err)
	}
	if st := j.Stats(); st.Compactions == 0 {
		t.Fatal("tiny budget never triggered a compaction")
	}
	j.Close()

	_, recs := openTest(t, path, 0)
	live := Reduce(recs)
	found := false
	for _, r := range live {
		if r.Job == "job-open" {
			found = true
			if r.Status != "queued" {
				t.Fatalf("open job compacted to status %q", r.Status)
			}
		}
	}
	if !found {
		t.Fatal("compaction dropped the non-terminal job")
	}
	if n := len(recs); n > 10 {
		t.Fatalf("journal holds %d records after compaction; budget not enforced", n)
	}
}

// TestReduce: latest-per-job in first-appearance order.
func TestReduce(t *testing.T) {
	recs := []Record{
		{Seq: 1, Job: "a", Status: "queued"},
		{Seq: 2, Job: "b", Status: "queued"},
		{Seq: 3, Job: "a", Status: "running"},
		{Seq: 4, Job: "b", Status: "done"},
		{Seq: 5, Job: "a", Status: "done"},
	}
	got := Reduce(recs)
	if len(got) != 2 || got[0].Job != "a" || got[0].Status != "done" || got[1].Job != "b" || got[1].Status != "done" {
		t.Fatalf("Reduce = %+v", got)
	}
}

// TestDecodeStreamRejectsNonMonotonicSeq: a frame whose sequence number
// does not climb stops the replay (stale or replayed bytes are never
// trusted past that point).
func TestDecodeStreamRejectsNonMonotonicSeq(t *testing.T) {
	var data []byte
	data = append(data, EncodeRecord(Record{Seq: 1, Job: "a", Status: "queued"})...)
	data = append(data, EncodeRecord(Record{Seq: 3, Job: "b", Status: "queued"})...)
	good := len(data)
	data = append(data, EncodeRecord(Record{Seq: 2, Job: "c", Status: "queued"})...)
	recs, consumed := DecodeStream(data)
	if len(recs) != 2 || consumed != good {
		t.Fatalf("DecodeStream replayed %d records, consumed %d (want 2, %d)", len(recs), consumed, good)
	}
}

// TestOpenSweepsStaleRewriteTemps: a crashed compaction's staging file is
// reclaimed by the next Open.
func TestOpenSweepsStaleRewriteTemps(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "journal.log")
	stale := filepath.Join(dir, "journal.log.tmp-123456")
	if err := os.WriteFile(stale, []byte("half a rewrite"), 0o644); err != nil {
		t.Fatal(err)
	}
	j, _ := openTest(t, path, 0)
	j.Close()
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatal("stale rewrite temp survived Open")
	}
}

// TestJournalUsesFSSeam: every filesystem touch goes through the injected
// FS — opening over a FaultFS with no faults armed behaves identically to
// the real filesystem.
func TestJournalUsesFSSeam(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.log")
	ff := store.NewFaultFS()
	j, _, err := Open(path, 0, isTerminal, ff)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Append(rec("job-000001", "queued")); err != nil {
		t.Fatal(err)
	}
	j.Close()
	_, recs := openTest(t, path, 0)
	if len(recs) != 1 {
		t.Fatalf("replayed %d records written through the seam", len(recs))
	}
}

// TestThresholdGridEncoding: a sweep's grid rides after every other
// field, so a grid-less record encodes exactly as it did before the field
// existed, a gridded one round-trips, and the two non-canonical grid
// spellings — an explicit count of 0, and a count the payload cannot
// hold — are rejected.
func TestThresholdGridEncoding(t *testing.T) {
	plain := rec("job-000001", "queued")
	plain.Seq = 1
	sweep := plain
	sweep.Thresholds = []float64{110, 50}

	base := encodePayload(plain)
	gridded := encodePayload(sweep)
	if len(gridded) != len(base)+4+8*2 || !bytes.Equal(gridded[:len(base)], base) {
		t.Fatalf("grid is not a pure suffix: %d-byte payload over a %d-byte grid-less one", len(gridded), len(base))
	}
	got, n, err := DecodeRecord(EncodeRecord(sweep))
	if err != nil || n != len(EncodeRecord(sweep)) || !reflect.DeepEqual(got, sweep) {
		t.Fatalf("gridded record round trip: %+v, %d bytes, %v", got, n, err)
	}

	frame := func(payload []byte) []byte {
		f := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
		f = binary.LittleEndian.AppendUint32(f, crc32.Checksum(payload, crcTable))
		return append(f, payload...)
	}
	for name, payload := range map[string][]byte{
		"zero-count": binary.LittleEndian.AppendUint32(bytes.Clone(base), 0),
		"over-count": append(binary.LittleEndian.AppendUint32(bytes.Clone(base), 3), gridded[len(base)+4:]...),
		"short-grid": gridded[:len(gridded)-1],
	} {
		if _, _, err := DecodeRecord(frame(payload)); err == nil {
			t.Errorf("%s: non-canonical grid accepted", name)
		}
	}
}
