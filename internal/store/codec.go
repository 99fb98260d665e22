package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"

	"opgate/internal/emu"
	"opgate/internal/prog"
)

// The trace codec, wire format version 2. A packed trace's struct-of-arrays
// columns serialize almost directly: the file is a fixed header, the nine
// record columns stored whole-trace contiguously (little-endian), and a
// 64-bit checksum trailer.
//
//	offset   size  field
//	0        4     magic "OGTR"
//	4        2     format version (2)
//	6        2     reserved (0)
//	8        32    program identity (ProgramIdentity of the traced binary)
//	40       8     event count n
//	48       4n    Idx    int32   static instruction index
//	48+4n    4n    Next   int32   next instruction executed
//	48+8n    n     Op     uint8
//	48+9n    n     WBytes uint8
//	48+10n   n     Flags  uint8
//	48+11n   8n    Addr   int64
//	48+19n   8n    Value  int64
//	48+27n   8n    SrcA   int64
//	48+35n   8n    SrcB   int64
//	end-8    8     CRC-32C (high half) ‖ CRC-32/IEEE (low half) of every
//	               preceding byte, as one little-endian uint64
//
// Both trailer halves are hardware-accelerated CRCs, and a random
// corruption must fool two independent ones, so the trailer keeps 64-bit
// strength at memory speed. Any other version (v1 framed the same layout
// with CRC-64/ECMA) fails the version check: the store drops the object
// as a miss and the trace is re-captured in this format.
//
// The encoding is canonical — no padding, no trailing slack — so
// re-encoding a decoded trace reproduces the input bit-for-bit (the fuzz
// target leans on that). Decode refuses anything it cannot vouch for:
// wrong magic or version, identity mismatch, truncation, trailing bytes,
// checksum failure, and records that do not validate against the program.
// DecodeTrace copies the columns out of the blob exactly once, into
// whole-trace storage the restored trace then adopts, so a decoded trace
// never pins the blob. Store.ReadTrace instead streams the columns out
// chunk by chunk through one pooled batch, after the same checks, reading
// a directory-tier object in place through a read-only mapping, so a warm
// read holds the mapping and one pooled chunk: no heap blob and no
// whole-trace copy.
const (
	codecMagic   = "OGTR"
	codecVersion = 2

	codecHeaderSize  = 4 + 2 + 2 + 32 + 8
	codecTrailerSize = 8

	// codecRecBytes is the wire footprint of one record: the nine columns
	// above (2×4 + 3×1 + 4×8).
	codecRecBytes = 43
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// trailerSum is the v2 checksum of b: CRC-32C in the high half, CRC-32/IEEE
// in the low half.
func trailerSum(b []byte) uint64 {
	return uint64(crc32.Checksum(b, castagnoli))<<32 | uint64(crc32.ChecksumIEEE(b))
}

// EncodeTrace serializes a packed trace captured from a binary with the
// given identity.
func EncodeTrace(t *emu.Trace, identity Hash) []byte {
	n := int(t.Len())
	buf := make([]byte, codecHeaderSize+n*codecRecBytes+codecTrailerSize)
	copy(buf, codecMagic)
	binary.LittleEndian.PutUint16(buf[4:], codecVersion)
	copy(buf[8:], identity[:])
	binary.LittleEndian.PutUint64(buf[40:], uint64(n))

	cols := colOffsets(n)
	pos := 0
	t.Records(emu.RecFunc(func(b emu.RecBatch) {
		putInt32s(buf[cols.idx+4*pos:], b.Idx)
		putInt32s(buf[cols.next+4*pos:], b.Next)
		copy(buf[cols.op+pos:], b.Op)
		copy(buf[cols.wbytes+pos:], b.WBytes)
		copy(buf[cols.flags+pos:], b.Flags)
		putInt64s(buf[cols.addr+8*pos:], b.Addr)
		putInt64s(buf[cols.value+8*pos:], b.Value)
		putInt64s(buf[cols.srcA+8*pos:], b.SrcA)
		putInt64s(buf[cols.srcB+8*pos:], b.SrcB)
		pos += b.Len()
	}))

	binary.LittleEndian.PutUint64(buf[len(buf)-codecTrailerSize:], trailerSum(buf[:len(buf)-codecTrailerSize]))
	return buf
}

// RetagTrace returns a copy of a framed trace blob addressed to another
// binary: the header's identity rewritten and the trailer recomputed.
// data must have passed framing (DecodeTraceRecords); since the encoding
// is canonical, the copy is byte-identical to EncodeTrace of the same
// records under identity.
func RetagTrace(data []byte, identity Hash) []byte {
	out := bytes.Clone(data)
	copy(out[8:40], identity[:])
	crcOff := len(out) - codecTrailerSize
	binary.LittleEndian.PutUint64(out[crcOff:], trailerSum(out[:crcOff]))
	return out
}

// DecodeTrace deserializes a trace and binds it to p, refusing any input
// whose header, identity, length, checksum, or records do not check out.
// It never panics on malformed input.
func DecodeTrace(data []byte, p *prog.Program, identity Hash) (*emu.Trace, error) {
	recs, stored, err := DecodeTraceRecords(data)
	if err != nil {
		return nil, err
	}
	if err := checkIdentity(stored, identity); err != nil {
		return nil, err
	}
	tr, err := emu.NewTraceFromRecords(p, recs)
	if err != nil {
		return nil, fmt.Errorf("store: trace does not validate against program: %w", err)
	}
	return tr, nil
}

// DecodeTraceRecords validates a codec blob's framing — magic, version,
// reserved bytes, length, checksum — and returns its whole-trace record
// columns together with the identity the header declares, without
// binding either to a program. This is the ingestion half of the codec:
// a caller that has no program yet (tracework synthesizes one from the
// records) decodes here, then validates the records against whatever
// program it derives. DecodeTrace composes this with the identity check
// and emu.NewTraceFromRecords. Never panics on malformed input.
func DecodeTraceRecords(data []byte) (emu.RecBatch, Hash, error) {
	n, stored, err := frame(data)
	if err != nil {
		return emu.RecBatch{}, stored, err
	}
	return readRecords(data, colOffsets(n), allocRecs(n), 0, n, false), stored, nil
}

// frame checks a codec blob's framing — magic, version, reserved bytes,
// length, checksum — and returns its event count and the identity its
// header declares. Never panics on malformed input.
func frame(data []byte) (int, Hash, error) {
	var stored Hash
	if len(data) < codecHeaderSize+codecTrailerSize {
		return 0, stored, fmt.Errorf("store: trace blob truncated (%d bytes)", len(data))
	}
	if string(data[:4]) != codecMagic {
		return 0, stored, fmt.Errorf("store: bad trace magic %q", data[:4])
	}
	if v := binary.LittleEndian.Uint16(data[4:]); v != codecVersion {
		return 0, stored, fmt.Errorf("store: unsupported trace format version %d (want %d)", v, codecVersion)
	}
	if data[6] != 0 || data[7] != 0 {
		// Encoding is canonical: accepting nonzero reserved bytes would
		// admit blobs that do not re-encode bit-identically.
		return 0, stored, fmt.Errorf("store: nonzero reserved header bytes %x", data[6:8])
	}
	copy(stored[:], data[8:40])
	events := binary.LittleEndian.Uint64(data[40:])
	if events > math.MaxInt64/codecRecBytes {
		return 0, stored, fmt.Errorf("store: absurd trace event count %d", events)
	}
	want := uint64(codecHeaderSize) + events*codecRecBytes + codecTrailerSize
	if uint64(len(data)) != want {
		return 0, stored, fmt.Errorf("store: trace blob is %d bytes, want %d for %d events", len(data), want, events)
	}
	crcOff := len(data) - codecTrailerSize
	if got, sum := trailerSum(data[:crcOff]), binary.LittleEndian.Uint64(data[crcOff:]); got != sum {
		return 0, stored, fmt.Errorf("store: trace checksum mismatch (%#x != %#x)", got, sum)
	}
	return int(events), stored, nil
}

// checkIdentity refuses a blob whose header names another binary.
func checkIdentity(stored, identity Hash) error {
	if stored != identity {
		return fmt.Errorf("store: trace identity mismatch (stored %x…, want %x…)", stored[:4], identity[:4])
	}
	return nil
}

// eachChunk decodes the records of a framed n-record blob chunk by chunk
// into buf and hands each chunk to fn, stopping at fn's first error.
// Narrow decodes only the columns emu.RecordValidator reads.
func eachChunk(data []byte, n int, buf emu.RecBatch, narrow bool, fn func(emu.RecBatch) error) error {
	c := colOffsets(n)
	for lo := 0; lo < n; lo += buf.Len() {
		if err := fn(readRecords(data, c, buf, lo, min(lo+buf.Len(), n), narrow)); err != nil {
			return err
		}
	}
	return nil
}

// allocRecs allocates a batch of n zeroed records.
func allocRecs(n int) emu.RecBatch {
	return emu.RecBatch{
		Idx: make([]int32, n), Next: make([]int32, n),
		Op: make([]uint8, n), WBytes: make([]uint8, n), Flags: make([]uint8, n),
		Addr: make([]int64, n), Value: make([]int64, n),
		SrcA: make([]int64, n), SrcB: make([]int64, n),
	}
}

// readRecords decodes records [lo, hi) of a framed blob with column
// offsets c into the front of buf (capacity at least hi-lo) and returns
// that view. Narrow decodes only the columns emu.RecordValidator reads,
// leaving the four value columns nil.
func readRecords(data []byte, c columns, buf emu.RecBatch, lo, hi int, narrow bool) emu.RecBatch {
	m := hi - lo
	b := emu.RecBatch{
		Idx: buf.Idx[:m], Next: buf.Next[:m],
		Op: buf.Op[:m], WBytes: buf.WBytes[:m], Flags: buf.Flags[:m],
	}
	getInt32s(b.Idx, data[c.idx+4*lo:])
	getInt32s(b.Next, data[c.next+4*lo:])
	copy(b.Op, data[c.op+lo:])
	copy(b.WBytes, data[c.wbytes+lo:])
	copy(b.Flags, data[c.flags+lo:])
	if narrow {
		return b
	}
	b.Addr, b.Value, b.SrcA, b.SrcB = buf.Addr[:m], buf.Value[:m], buf.SrcA[:m], buf.SrcB[:m]
	getInt64s(b.Addr, data[c.addr+8*lo:])
	getInt64s(b.Value, data[c.value+8*lo:])
	getInt64s(b.SrcA, data[c.srcA+8*lo:])
	getInt64s(b.SrcB, data[c.srcB+8*lo:])
	return b
}

// columns holds the file offsets of the nine record columns.
type columns struct{ idx, next, op, wbytes, flags, addr, value, srcA, srcB int }

// colOffsets returns the file offsets of the nine record columns for an
// n-event trace.
func colOffsets(n int) (c columns) {
	c.idx = codecHeaderSize
	c.next = c.idx + 4*n
	c.op = c.next + 4*n
	c.wbytes = c.op + n
	c.flags = c.wbytes + n
	c.addr = c.flags + n
	c.value = c.addr + 8*n
	c.srcA = c.value + 8*n
	c.srcB = c.srcA + 8*n
	return c
}

// putInt32s / putInt64s write a column little-endian at the front of dst;
// getInt32s / getInt64s fill a column from the front of src. Advancing the
// byte slice keeps the loops free of per-element index arithmetic.
func putInt32s(dst []byte, src []int32) {
	for _, v := range src {
		binary.LittleEndian.PutUint32(dst, uint32(v))
		dst = dst[4:]
	}
}

func putInt64s(dst []byte, src []int64) {
	for _, v := range src {
		binary.LittleEndian.PutUint64(dst, uint64(v))
		dst = dst[8:]
	}
}

func getInt32s(dst []int32, src []byte) {
	for i := range dst {
		dst[i] = int32(binary.LittleEndian.Uint32(src))
		src = src[4:]
	}
}

func getInt64s(dst []int64, src []byte) {
	for i := range dst {
		dst[i] = int64(binary.LittleEndian.Uint64(src))
		src = src[8:]
	}
}
