// Package journal is the crash-durability layer under opgated's job
// lifecycle: an append-only, CRC-guarded record log written through the
// store's FS seam, so a process killed at any point — SIGKILL, OOM,
// power loss — can replay its accepted work at the next boot instead of
// dangling every client-held job ID.
//
// Wire format: the journal is a flat sequence of frames,
//
//	[u32 payload length][u32 CRC-32C of payload][payload]
//
// with the payload a fixed-order, length-prefixed binary encoding of one
// Record. The format is deliberately torn-tail tolerant: a crash mid-
// append leaves a partial (or CRC-failing) final frame, and replay skips
// it silently — a torn tail is the expected crash artifact, never an
// error. Replay also stops at the first non-monotonic sequence number,
// so bytes after any damage are never misread as records. Because a
// valid prefix is all that is ever trusted, the decoder's acceptance is
// canonical: re-encoding the accepted records reproduces the consumed
// bytes exactly (FuzzJournalDecode pins this).
//
// Appends are fsynced; an append that fails mid-write rewrites the whole
// journal from the in-memory state (temp file + fsync + atomic rename +
// parent-directory fsync), so one bad write never poisons the tail for
// every later record. Once the log outgrows its byte budget, compaction
// rewrites only the latest record of each non-terminal job: terminal
// jobs' reports live in the content-addressed store, so their journal
// entries are history, not state — a client holding a retired terminal
// job ID falls back to the report key.
package journal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"opgate/internal/store"
)

// Record is one journaled job-lifecycle event. Every record carries the
// job's full definition, not just the transition, so any single surviving
// record is enough to re-adopt the job after a crash.
type Record struct {
	Seq        uint64    // monotonic, assigned by Append
	Time       int64     // UnixNano of the transition
	Job        string    // job ID ("job-000042")
	Status     string    // lifecycle status at this transition
	Experiment string    // job definition: experiment ID
	Threshold  float64   // job definition: VRS threshold
	Synthetics []string  // job definition: expanded synthetic names
	Thresholds []float64 // job definition: a sweep's grid; empty for a plain job
	ReportKey  string    // content address the finished report lands under
	Err        string    // terminal error message, when there is one
}

// Wire-format bounds: a frame advertising more than maxPayload bytes (or
// any string/list beyond its cap) is damage, not data. The caps are far
// above anything the server writes but low enough that hostile input
// cannot balloon allocations.
const (
	frameHeaderSize = 8       // u32 length + u32 CRC
	maxPayload      = 1 << 20 // bytes per record payload
	maxString       = 1 << 16 // bytes per string field
	maxSynthetics   = 1 << 12 // entries in the synthetic list
)

// crcTable is the Castagnoli polynomial (CRC-32C), a hardware-accelerated
// CRC; the store's trace codec pairs it with CRC-32/IEEE for a 64-bit
// trailer.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// appendUint64 / appendString are the little-endian primitives of the
// canonical payload encoding.
func appendUint64(buf []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(buf, v)
}

func appendString(buf []byte, s string) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s)))
	return append(buf, s...)
}

// encodePayload renders the canonical payload: fixed field order, every
// variable-length field length-prefixed — the bijection FuzzJournalDecode
// leans on. The one optional field is last: a sweep's grid, a count and
// then that many float64 bit patterns, written only when non-empty, so a
// grid-less record encodes exactly as it did before the field existed.
func encodePayload(r Record) []byte {
	buf := make([]byte, 0, 64+len(r.Job)+len(r.Status)+len(r.Experiment)+len(r.ReportKey)+len(r.Err))
	buf = appendUint64(buf, r.Seq)
	buf = appendUint64(buf, uint64(r.Time))
	buf = appendUint64(buf, math.Float64bits(r.Threshold))
	buf = appendString(buf, r.Job)
	buf = appendString(buf, r.Status)
	buf = appendString(buf, r.Experiment)
	buf = appendString(buf, r.ReportKey)
	buf = appendString(buf, r.Err)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(r.Synthetics)))
	for _, s := range r.Synthetics {
		buf = appendString(buf, s)
	}
	if len(r.Thresholds) > 0 {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(r.Thresholds)))
		for _, th := range r.Thresholds {
			buf = appendUint64(buf, math.Float64bits(th))
		}
	}
	return buf
}

// EncodeRecord renders one complete frame: header plus canonical payload.
func EncodeRecord(r Record) []byte {
	payload := encodePayload(r)
	frame := make([]byte, 0, frameHeaderSize+len(payload))
	frame = binary.LittleEndian.AppendUint32(frame, uint32(len(payload)))
	frame = binary.LittleEndian.AppendUint32(frame, crc32.Checksum(payload, crcTable))
	return append(frame, payload...)
}

// payloadReader walks a payload with bounds checking.
type payloadReader struct {
	data []byte
	off  int
}

func (p *payloadReader) uint64() (uint64, error) {
	if p.off+8 > len(p.data) {
		return 0, errors.New("journal: truncated integer")
	}
	v := binary.LittleEndian.Uint64(p.data[p.off:])
	p.off += 8
	return v, nil
}

func (p *payloadReader) uint32() (uint32, error) {
	if p.off+4 > len(p.data) {
		return 0, errors.New("journal: truncated length")
	}
	v := binary.LittleEndian.Uint32(p.data[p.off:])
	p.off += 4
	return v, nil
}

func (p *payloadReader) string() (string, error) {
	n, err := p.uint32()
	if err != nil {
		return "", err
	}
	if n > maxString {
		return "", fmt.Errorf("journal: string length %d exceeds cap", n)
	}
	if p.off+int(n) > len(p.data) {
		return "", errors.New("journal: truncated string")
	}
	s := string(p.data[p.off : p.off+int(n)])
	p.off += int(n)
	return s, nil
}

// decodePayload parses one canonical payload. It rejects anything the
// encoder could not have produced — truncation, over-cap lengths,
// trailing bytes — so accept implies canonical.
func decodePayload(payload []byte) (Record, error) {
	p := &payloadReader{data: payload}
	var r Record
	var err error
	if r.Seq, err = p.uint64(); err != nil {
		return r, err
	}
	t, err := p.uint64()
	if err != nil {
		return r, err
	}
	r.Time = int64(t)
	bits, err := p.uint64()
	if err != nil {
		return r, err
	}
	r.Threshold = math.Float64frombits(bits)
	for _, dst := range []*string{&r.Job, &r.Status, &r.Experiment, &r.ReportKey, &r.Err} {
		if *dst, err = p.string(); err != nil {
			return r, err
		}
	}
	n, err := p.uint32()
	if err != nil {
		return r, err
	}
	if n > maxSynthetics {
		return r, fmt.Errorf("journal: synthetic count %d exceeds cap", n)
	}
	for i := uint32(0); i < n; i++ {
		s, err := p.string()
		if err != nil {
			return r, err
		}
		r.Synthetics = append(r.Synthetics, s)
	}
	if p.off < len(payload) {
		// A grid is never written empty, so a count of 0 is not canonical;
		// a count the payload cannot hold fails at its first short read.
		if n, err = p.uint32(); err != nil {
			return r, err
		}
		if n == 0 {
			return r, errors.New("journal: empty threshold grid")
		}
		for i := uint32(0); i < n; i++ {
			bits, err := p.uint64()
			if err != nil {
				return r, err
			}
			r.Thresholds = append(r.Thresholds, math.Float64frombits(bits))
		}
	}
	if p.off != len(payload) {
		return r, fmt.Errorf("journal: %d trailing payload bytes", len(payload)-p.off)
	}
	return r, nil
}

// DecodeRecord parses one frame from the head of data, returning the
// record and how many bytes it consumed. Any defect — short header,
// over-cap length, short payload, CRC mismatch, malformed payload — is
// an error; DecodeRecord never panics on arbitrary input.
func DecodeRecord(data []byte) (Record, int, error) {
	if len(data) < frameHeaderSize {
		return Record{}, 0, errors.New("journal: truncated frame header")
	}
	n := binary.LittleEndian.Uint32(data)
	sum := binary.LittleEndian.Uint32(data[4:])
	if n > maxPayload {
		return Record{}, 0, fmt.Errorf("journal: frame length %d exceeds cap", n)
	}
	end := frameHeaderSize + int(n)
	if end > len(data) {
		return Record{}, 0, errors.New("journal: truncated frame payload")
	}
	payload := data[frameHeaderSize:end]
	if crc32.Checksum(payload, crcTable) != sum {
		return Record{}, 0, errors.New("journal: frame CRC mismatch")
	}
	r, err := decodePayload(payload)
	if err != nil {
		return Record{}, 0, err
	}
	return r, end, nil
}

// DecodeStream replays a journal byte stream: every valid frame from the
// head, stopping — silently — at the first defect or non-monotonic
// sequence number. It returns the records and how many bytes of data
// they occupy; consumed < len(data) means the tail was torn (the
// expected crash artifact) or damaged (everything after it is
// untrustworthy and treated as lost).
func DecodeStream(data []byte) (recs []Record, consumed int) {
	lastSeq := uint64(0)
	for consumed < len(data) {
		r, n, err := DecodeRecord(data[consumed:])
		if err != nil || r.Seq <= lastSeq {
			return recs, consumed
		}
		lastSeq = r.Seq
		recs = append(recs, r)
		consumed += n
	}
	return recs, consumed
}

// Reduce folds a replayed stream into the latest record per job, in
// first-appearance order — the state a recovering server re-adopts.
func Reduce(recs []Record) []Record {
	latest := map[string]int{}
	var order []string
	for i, r := range recs {
		if _, ok := latest[r.Job]; !ok {
			order = append(order, r.Job)
		}
		latest[r.Job] = i
	}
	out := make([]Record, 0, len(order))
	for _, job := range order {
		out = append(out, recs[latest[job]])
	}
	return out
}

// DefaultCompactBudget is the journal size that triggers a compaction.
// Job records are a few hundred bytes, so this keeps thousands of
// transitions of history while bounding replay work at boot.
const DefaultCompactBudget = 256 << 10

// Stats is a point-in-time snapshot of journal health counters.
type Stats struct {
	Seq          uint64 // last assigned sequence number
	SizeBytes    int64  // current on-disk size
	Live         int    // jobs tracked in memory (latest record each)
	Appends      int64  // successful straight-line appends
	AppendErrors int64  // appends that needed (or failed) a rewrite
	Compactions  int64  // budget-triggered rewrites
}

// Journal is an open job journal. All methods are safe for concurrent
// use; one process owns a journal file at a time.
type Journal struct {
	fs       store.FS
	path     string
	budget   int64
	terminal func(status string) bool // the status state machine's owner

	mu    sync.Mutex
	f     store.File
	seq   uint64
	size  int64
	state map[string]Record // latest record per job
	order []string          // job first-appearance order

	appends, appendErrors, compactions int64
}

// Open opens (creating if absent) the journal at path over fs, replaying
// any existing records. A torn or damaged tail is repaired in place — the
// valid prefix is rewritten so future appends land on sound bytes. The
// terminal predicate classifies statuses for compaction (which keeps only
// non-terminal jobs); budget <= 0 selects DefaultCompactBudget. The
// replayed records are returned for the caller to re-adopt.
func Open(path string, budget int64, terminal func(string) bool, fs store.FS) (*Journal, []Record, error) {
	if budget <= 0 {
		budget = DefaultCompactBudget
	}
	if fs == nil {
		fs = OSFS()
	}
	if err := fs.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, nil, fmt.Errorf("journal: open %s: %w", path, err)
	}
	j := &Journal{fs: fs, path: path, budget: budget, terminal: terminal, state: map[string]Record{}}
	j.sweepStaleTemps()
	data, err := fs.ReadFile(path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, nil, fmt.Errorf("journal: open %s: %w", path, err)
	}
	recs, consumed := DecodeStream(data)
	for _, r := range recs {
		j.absorbLocked(r)
	}
	if consumed < len(data) {
		// Torn tail: rewrite the valid prefix so the next append does not
		// land after unreadable bytes.
		if err := j.rewriteLocked(recs); err != nil {
			return nil, nil, fmt.Errorf("journal: repair %s: %w", path, err)
		}
	} else {
		f, err := fs.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, nil, fmt.Errorf("journal: open %s: %w", path, err)
		}
		j.f = f
		j.size = int64(consumed)
	}
	return j, recs, nil
}

// OSFS exposes the store's production filesystem for journal callers that
// have no store (journaling without -store).
func OSFS() store.FS { return store.OSFS() }

// tempPrefix is the staging-file prefix compaction rewrites use; Open
// sweeps leftovers from crashed rewrites.
func (j *Journal) tempPrefix() string { return filepath.Base(j.path) + ".tmp-" }

func (j *Journal) sweepStaleTemps() {
	dir := filepath.Dir(j.path)
	entries, err := j.fs.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), j.tempPrefix()) {
			_ = j.fs.Remove(filepath.Join(dir, e.Name()))
		}
	}
}

// absorbLocked folds one record into the in-memory latest-per-job state.
func (j *Journal) absorbLocked(r Record) {
	if _, ok := j.state[r.Job]; !ok {
		j.order = append(j.order, r.Job)
	}
	j.state[r.Job] = r
	if r.Seq > j.seq {
		j.seq = r.Seq
	}
}

// snapshotLocked returns the latest record of every tracked job —
// terminal included — in ascending sequence order.
func (j *Journal) snapshotLocked() []Record {
	recs := make([]Record, 0, len(j.state))
	for _, r := range j.state {
		recs = append(recs, r)
	}
	sort.Slice(recs, func(a, b int) bool { return recs[a].Seq < recs[b].Seq })
	return recs
}

// Append journals one record: it assigns the next sequence number (and a
// timestamp, when unset), writes the frame, and fsyncs. A failed write
// may leave a torn frame at the tail, so the error path rewrites the
// whole journal from memory — the record still reaches disk and later
// appends stay readable. Only when the rewrite also fails does Append
// return an error; the in-memory state is correct either way, so the
// journal heals on the next successful append.
func (j *Journal) Append(r Record) (uint64, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.seq++
	r.Seq = j.seq
	if r.Time == 0 {
		r.Time = time.Now().UnixNano()
	}
	j.absorbLocked(r)
	frame := EncodeRecord(r)
	var werr error
	if j.f == nil {
		werr = errors.New("journal: no append handle")
	} else {
		_, werr = j.f.Write(frame)
		if werr == nil {
			werr = j.f.Sync()
		}
	}
	if werr != nil {
		j.appendErrors++
		if rerr := j.rewriteLocked(j.snapshotLocked()); rerr != nil {
			j.closeFileLocked()
			return r.Seq, fmt.Errorf("journal: append: %w", errors.Join(werr, rerr))
		}
		return r.Seq, nil // recovered: the rewrite carried the record
	}
	j.appends++
	j.size += int64(len(frame))
	if j.size > j.budget {
		j.compactLocked()
	}
	return r.Seq, nil
}

// compactLocked rewrites only the latest record of each non-terminal job
// and prunes terminal jobs from the in-memory state: their reports are in
// the content-addressed store, so the journal owes them nothing. Failure
// is tolerable — the oversized journal remains fully valid.
func (j *Journal) compactLocked() {
	var live []Record
	for _, r := range j.state {
		if j.terminal == nil || !j.terminal(r.Status) {
			live = append(live, r)
		}
	}
	sort.Slice(live, func(a, b int) bool { return live[a].Seq < live[b].Seq })
	if err := j.rewriteLocked(live); err != nil {
		return
	}
	j.compactions++
	j.state = map[string]Record{}
	j.order = nil
	for _, r := range live {
		j.absorbLocked(r)
	}
}

// rewriteLocked atomically replaces the journal file with exactly recs:
// temp file, fsync, rename over, parent-directory fsync, fresh append
// handle. On failure the previous file (and handle, when still open) are
// left as they were.
func (j *Journal) rewriteLocked(recs []Record) error {
	dir := filepath.Dir(j.path)
	f, err := j.fs.CreateTemp(dir, j.tempPrefix()+"*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	var size int64
	var werr error
	for _, r := range recs {
		frame := EncodeRecord(r)
		if _, werr = f.Write(frame); werr != nil {
			break
		}
		size += int64(len(frame))
	}
	if werr == nil {
		werr = f.Sync()
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr == nil {
		werr = j.fs.Rename(tmp, j.path)
	}
	if werr != nil {
		_ = j.fs.Remove(tmp)
		return werr
	}
	_ = j.fs.SyncDir(dir) // best-effort: the rename itself succeeded
	j.closeFileLocked()
	nf, err := j.fs.OpenFile(j.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	j.f = nf
	j.size = size
	return nil
}

func (j *Journal) closeFileLocked() {
	if j.f != nil {
		_ = j.f.Close()
		j.f = nil
	}
}

// Stats returns a snapshot of the journal's health counters.
func (j *Journal) Stats() Stats {
	j.mu.Lock()
	defer j.mu.Unlock()
	return Stats{
		Seq:          j.seq,
		SizeBytes:    j.size,
		Live:         len(j.state),
		Appends:      j.appends,
		AppendErrors: j.appendErrors,
		Compactions:  j.compactions,
	}
}

// Close releases the append handle. The journal must not be used after.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	var err error
	if j.f != nil {
		err = j.f.Close()
		j.f = nil
	}
	return err
}
