// Package store is the persistent, content-addressed artifact store: packed
// retirement traces (emu.Trace) and rendered report blobs survive the
// process, keyed by a hash of everything that determines their content, so
// a warm `ogbench -store` run or a busy `opgated` service re-emulates
// nothing it has already seen. Layout under the root directory:
//
//	<root>/objects/<64-hex-char key>   one artifact per key
//	<root>/tmp/                        staging for atomic rename writes
//
// Writes land via temp-file + rename, so concurrent readers (including
// other processes sharing the root) never observe a partial object. Reads
// touch the object's mtime, and an LRU sweep after each write keeps the
// root under a byte budget. The store is an accelerator only: a missing,
// truncated, corrupted or program-mismatched object is a cache miss, never
// an error the simulation pipeline has to care about.
package store

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"os"
	"strings"
	"sync"

	"opgate/internal/prog"
)

// Hash is a 32-byte content identity (SHA-256).
type Hash [32]byte

// String renders the identity as lowercase hex.
func (h Hash) String() string { return hex.EncodeToString(h[:]) }

// Key addresses one stored artifact: 64 lowercase hex characters, the
// SHA-256 of the artifact's domain-separated identity tuple.
type Key string

// ParseKey validates an externally supplied key (e.g. an opgated URL path
// element) before it is used as a file name.
func ParseKey(s string) (Key, error) {
	if len(s) != 2*sha256.Size {
		return "", fmt.Errorf("store: key %q: want %d hex characters", s, 2*sha256.Size)
	}
	if _, err := hex.DecodeString(s); err != nil {
		return "", fmt.Errorf("store: key %q is not hex: %v", s, err)
	}
	return Key(s), nil
}

// deriveKey hashes a domain-separated tuple of strings: each part is
// length-prefixed, so ("ab","c") and ("a","bc") derive distinct keys.
func deriveKey(parts ...string) Key {
	h := sha256.New()
	var n [8]byte
	for _, part := range parts {
		binary.LittleEndian.PutUint64(n[:], uint64(len(part)))
		h.Write(n[:])
		h.Write([]byte(part))
	}
	return Key(hex.EncodeToString(h.Sum(nil)))
}

// TraceKey addresses the packed trace of one program variant: the workload
// name (a synthetic name carries its generator family/class/seed), the
// variant label, the input class, and the identity of the exact binary
// executed. The code identity makes the address content-correct — a
// changed kernel, generator, or optimizer produces a different variant
// binary and therefore a different key, so stale traces are unreachable
// rather than wrong. The harness suite passes one constant label, "base",
// for every binary it stores: the identity alone names the binary, so
// every variant label that builds it reaches the same object. Imported
// traces (internal/tracework) use the same label.
func TraceKey(workload, variant, inputClass string, identity Hash) Key {
	return deriveKey("trace/v1", workload, variant, inputClass, identity.String())
}

// TraceMetaKey addresses the metadata document of one imported trace: a
// small JSON record (internal/tracework) naming the skeleton identity,
// event count, and blob key of the canonical trace stored under the
// corresponding TraceKey. Imported traces are keyed by their registry
// name and input class alone — the name IS the user-facing handle, so a
// re-import under the same name replaces the previous trace (the old
// blob stays content-addressed and unreachable).
func TraceMetaKey(workload, inputClass string) Key {
	return deriveKey("tracemeta/v1", workload, inputClass)
}

// TraceIndexKey addresses the best-effort name index of imported traces:
// a JSON list of registry names, updated read-modify-write on import.
// The index is a convenience for listing (ogtrace list, fleet
// inspection); the metadata documents remain the source of truth, so a
// lost update degrades listing, never correctness.
func TraceIndexKey() Key {
	return deriveKey("traceindex/v1")
}

// ReportKey addresses one experiment report sequence — stored in its
// structured canonical-JSON form (harness.EncodeReports) and rendered at
// read time — keyed by the experiment ID (the mode set it simulates is
// part of its definition), the evaluation input class, the VRS threshold,
// the workload list (paper kernels are implicit; synthetics are listed,
// carrying their generator seeds), and a code identity. A report depends
// on the whole pipeline — kernels, optimizer, timing model, power
// coefficients, schema — so the identity should cover all of it:
// SelfIdentity (a hash of the running executable) makes any recompile
// derive fresh addresses, keeping stale reports unreachable exactly like
// stale traces. v2 marks the switch from pre-rendered text blobs to the
// structured encoding.
func ReportKey(experiment string, quick bool, threshold float64, synthetics []string, identity Hash) Key {
	parts := make([]string, 0, 5+len(synthetics))
	parts = append(parts, "report/v2", experiment,
		fmt.Sprintf("quick=%t", quick), fmt.Sprintf("threshold=%g", threshold),
		identity.String())
	parts = append(parts, synthetics...)
	return deriveKey(parts...)
}

// SweepKey addresses one experiment's encoded threshold sweep
// (harness.EncodeSweep): ReportKey's dimensions with the whole canonical
// %g-rendered grid in place of the single threshold. The per-threshold
// cells inside the sweep are additionally stored under their own
// ReportKey addresses — the grid document is a view; the cells are the
// content-addressed unit of reuse.
func SweepKey(experiment string, quick bool, thresholds []float64, synthetics []string, identity Hash) Key {
	grid := make([]string, len(thresholds))
	for i, th := range thresholds {
		grid[i] = fmt.Sprintf("%g", th)
	}
	parts := make([]string, 0, 5+len(synthetics))
	parts = append(parts, "sweep/v1", experiment,
		fmt.Sprintf("quick=%t", quick), "thresholds="+strings.Join(grid, ","),
		identity.String())
	parts = append(parts, synthetics...)
	return deriveKey(parts...)
}

// selfIdentity caches the hash of the running executable.
var selfIdentity struct {
	once sync.Once
	hash Hash
}

// SelfIdentity returns the SHA-256 of the running executable, the
// broadest available code identity: any rebuild — a changed coefficient,
// a new formatter — yields a different hash. Errors (no readable
// executable path) degrade to the zero hash, which is still consistent
// within the process.
func SelfIdentity() Hash {
	selfIdentity.once.Do(func() {
		exe, err := os.Executable()
		if err != nil {
			return
		}
		data, err := os.ReadFile(exe)
		if err != nil {
			return
		}
		selfIdentity.hash = sha256.Sum256(data)
	})
	return selfIdentity.hash
}

// ProgramIdentity hashes everything that determines a program's retirement
// stream: the instruction image, the entry function, and the initial data
// segment and memory geometry. Two programs with equal identities replay
// each other's traces; any single-bit difference in code or data yields a
// different identity and therefore a different trace address.
func ProgramIdentity(p *prog.Program) Hash {
	h := sha256.New()
	var buf [8]byte
	w64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	w64(uint64(len(p.Ins)))
	for i := range p.Ins {
		in := &p.Ins[i]
		packed := uint64(in.Op) | uint64(in.Width)<<8 |
			uint64(in.Rd)<<16 | uint64(in.Ra)<<24 | uint64(in.Rb)<<32
		if in.HasImm {
			packed |= 1 << 40
		}
		w64(packed)
		w64(uint64(in.Imm))
		w64(uint64(in.Target))
	}
	entry := p.Funcs[p.Entry]
	w64(uint64(entry.Start))
	w64(uint64(p.DataBase))
	w64(uint64(p.MemSize))
	w64(uint64(len(p.Data)))
	h.Write(p.Data)
	var out Hash
	h.Sum(out[:0])
	return out
}
