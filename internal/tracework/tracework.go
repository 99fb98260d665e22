// Package tracework turns retirement traces into first-class workloads.
// It is the ingestion frontend of the "trace:" registry namespace
// (internal/workload): any codec-framed trace blob — exported from this
// pipeline or produced by an external tracer that speaks the format —
// is validated, bound to a skeleton program synthesized from its own
// per-static table (emu.NewProgramFromTrace), and registered in a store
// under a user-chosen name. From then on the trace replays through every
// replay-capable experiment exactly like a cached native trace: same
// store path, same fused mode-groups, same figures and tables.
//
// The split of responsibilities:
//
//   - Ingest is pure: bytes in, validated (records, skeleton, identity,
//     canonical re-encoding) artifacts out. ogtrace and opgated both
//     call it; the fuzz target hammers it.
//   - Library binds ingested artifacts to a store: the canonical blob
//     lands under the exact store.TraceKey the harness already probes
//     (workload "trace:<name>", variant "base", the import's input
//     class, the skeleton identity), so replay needs no new serving
//     path; a metadata document under store.TraceMetaKey records the
//     identity the harness must ask for; a best-effort index supports
//     listing.
//
// What trace workloads cannot do is equally explicit: no live emulation
// means no VRS training, no non-base variants, no fresh-input runs.
// Those paths return errors wrapping workload.ErrTraceOnly; lookups for
// names never imported return *NotImportedError.
package tracework

import (
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"

	"opgate/internal/emu"
	"opgate/internal/prog"
	"opgate/internal/store"
	"opgate/internal/workload"
)

// Ingested is the result of validating one trace blob: the decoded
// record columns, the skeleton program synthesized from them, the
// skeleton's content identity, the records re-bound to the skeleton,
// and the canonical re-encoding under that identity. The identity the
// incoming blob declared is irrelevant — an external trace carries the
// identity of the binary it was captured from, which the importer does
// not have; the skeleton's own identity is the address everything is
// stored and looked up under. Records and Trace share storage (the trace
// adopts the decoded columns), so both are read-only.
type Ingested struct {
	Records   emu.RecBatch
	Program   *prog.Program
	Identity  store.Hash
	Trace     *emu.Trace
	Canonical []byte
	Events    int
	StaticIns int
}

// Ingest validates a codec-framed trace blob end to end: framing
// (magic, version, length, checksum), record sanity, skeleton
// synthesis, and re-validation of the records against the skeleton. It
// never panics on arbitrary input. The returned Canonical blob is the
// bit-exact form the library stores: re-ingesting it yields the same
// identity and the same canonical bytes (ingestion is idempotent).
func Ingest(data []byte) (*Ingested, error) {
	recs, _, err := store.DecodeTraceRecords(data)
	if err != nil {
		return nil, fmt.Errorf("tracework: %w", err)
	}
	p, err := emu.NewProgramFromTrace(recs)
	if err != nil {
		return nil, fmt.Errorf("tracework: %w", err)
	}
	id := store.ProgramIdentity(p)
	tr, err := emu.NewTraceFromRecords(p, recs)
	if err != nil {
		// Unreachable when NewProgramFromTrace succeeds — the skeleton is
		// built to match every record — but a codec or synthesis bug must
		// surface as an error, not a corrupt registration.
		return nil, fmt.Errorf("tracework: skeleton does not accept its own records: %w", err)
	}
	return &Ingested{
		Records:   recs,
		Program:   p,
		Identity:  id,
		Trace:     tr,
		Canonical: store.EncodeTrace(tr, id),
		Events:    recs.Len(),
		StaticIns: len(p.Ins),
	}, nil
}

// NotImportedError reports a "trace:" workload lookup for a (name,
// class) pair the store has no import of. It is a distinct type so the
// harness can distinguish "you never imported this" (actionable: run
// ogtrace import) from storage corruption.
type NotImportedError struct {
	Name  string // registry name, "trace:<bare>"
	Class string // input class asked for
}

func (e *NotImportedError) Error() string {
	return fmt.Sprintf("tracework: %s has no imported %s trace (import one with ogtrace, or POST /v1/traces on opgated)", e.Name, e.Class)
}

// Meta is the metadata document of one imported trace, stored under
// store.TraceMetaKey(name, class). It records what the harness needs to
// find and verify the blob without decoding it: the skeleton identity
// (the TraceKey component) and the shape numbers inspection tools show.
type Meta struct {
	Name      string `json:"name"`       // registry name, "trace:<bare>"
	Class     string `json:"class"`      // input class the records stand in for
	Identity  string `json:"identity"`   // hex skeleton identity
	Events    int    `json:"events"`     // retired-event count
	StaticIns int    `json:"static_ins"` // skeleton instruction count
}

// BlobKey returns the store key of the canonical trace blob the
// metadata describes.
func (m *Meta) BlobKey() (store.Key, error) {
	id, err := parseHash(m.Identity)
	if err != nil {
		return "", fmt.Errorf("tracework: %s metadata: %w", m.Name, err)
	}
	return store.TraceKey(m.Name, "base", m.Class, id), nil
}

// Library is the imported-trace registry over a store: Put registers an
// ingested trace under a name, Lookup and Skeleton serve the harness,
// List serves inspection tools. All methods take full registry names
// ("trace:<bare>").
type Library struct {
	s *store.Store
}

// NewLibrary binds a library to a store.
func NewLibrary(s *store.Store) *Library { return &Library{s: s} }

// Put registers an ingested trace under the registry name for one input
// class: the canonical blob under its TraceKey, the metadata document
// under TraceMetaKey, and a best-effort index entry. A second Put under
// the same (name, class) replaces the registration (the blob address is
// content-derived, so an identical re-import is a no-op write).
func (l *Library) Put(name string, class workload.InputClass, ing *Ingested) error {
	if _, err := workload.ParseTraceName(name); err != nil {
		return err
	}
	meta := &Meta{
		Name:      name,
		Class:     class.String(),
		Identity:  ing.Identity.String(),
		Events:    ing.Events,
		StaticIns: ing.StaticIns,
	}
	blobKey, err := meta.BlobKey()
	if err != nil {
		return err
	}
	if err := l.s.Put(blobKey, ing.Canonical); err != nil {
		return fmt.Errorf("tracework: storing %s blob: %w", name, err)
	}
	doc, err := json.Marshal(meta)
	if err != nil {
		return fmt.Errorf("tracework: encoding %s metadata: %w", name, err)
	}
	if err := l.s.Put(store.TraceMetaKey(name, meta.Class), doc); err != nil {
		return fmt.Errorf("tracework: storing %s metadata: %w", name, err)
	}
	l.addToIndex(name, meta.Class)
	return nil
}

// Lookup returns the metadata of an imported (name, class) pair, or
// *NotImportedError.
func (l *Library) Lookup(name string, class workload.InputClass) (*Meta, error) {
	if _, err := workload.ParseTraceName(name); err != nil {
		return nil, err
	}
	doc, ok := l.s.Get(store.TraceMetaKey(name, class.String()))
	if !ok {
		return nil, &NotImportedError{Name: name, Class: class.String()}
	}
	var m Meta
	if err := json.Unmarshal(doc, &m); err != nil {
		return nil, fmt.Errorf("tracework: %s metadata corrupt: %w", name, err)
	}
	if m.Name != name || m.Class != class.String() {
		return nil, fmt.Errorf("tracework: %s metadata names %s/%s (store key collision or corruption)", name, m.Name, m.Class)
	}
	return &m, nil
}

// Skeleton resolves an imported trace to its skeleton program and
// identity, re-synthesizing the skeleton from the stored blob and
// verifying it still hashes to the registered identity. The harness
// calls this in place of Workload.Build for "trace:" names; the
// returned pair makes the ordinary store.ReadTrace path hit the
// canonical blob.
func (l *Library) Skeleton(name string, class workload.InputClass) (*prog.Program, store.Hash, error) {
	m, err := l.Lookup(name, class)
	if err != nil {
		return nil, store.Hash{}, err
	}
	key, err := m.BlobKey()
	if err != nil {
		return nil, store.Hash{}, err
	}
	data, ok := l.s.Get(key)
	if !ok {
		// The metadata survived but the blob was evicted or lost: surface
		// as not-imported so the remedy (re-import) is the same.
		return nil, store.Hash{}, &NotImportedError{Name: name, Class: class.String()}
	}
	ing, err := Ingest(data)
	if err != nil {
		return nil, store.Hash{}, fmt.Errorf("tracework: %s stored blob no longer ingests: %w", name, err)
	}
	if ing.Identity.String() != m.Identity {
		return nil, store.Hash{}, fmt.Errorf("tracework: %s skeleton identity drifted (%s != %s)", name, ing.Identity, m.Identity)
	}
	return ing.Program, ing.Identity, nil
}

// Entry is one row of the best-effort name index.
type Entry struct {
	Name  string `json:"name"`
	Class string `json:"class"`
}

// List returns the index's (name, class) pairs, sorted. The index is
// best-effort (concurrent imports can lose an entry to a read-modify-
// write race); metadata documents remain authoritative.
func (l *Library) List() []Entry {
	var idx []Entry
	if doc, ok := l.s.Get(store.TraceIndexKey()); ok {
		// A corrupt index degrades to empty: listing is a convenience.
		_ = json.Unmarshal(doc, &idx)
	}
	return idx
}

// addToIndex merges one entry into the index, best-effort.
func (l *Library) addToIndex(name, class string) {
	idx := l.List()
	for _, e := range idx {
		if e.Name == name && e.Class == class {
			return
		}
	}
	idx = append(idx, Entry{Name: name, Class: class})
	sort.Slice(idx, func(i, j int) bool {
		if idx[i].Name != idx[j].Name {
			return idx[i].Name < idx[j].Name
		}
		return idx[i].Class < idx[j].Class
	})
	doc, err := json.Marshal(idx)
	if err != nil {
		return
	}
	_ = l.s.Put(store.TraceIndexKey(), doc)
}

// parseHash decodes a 64-hex-character identity.
func parseHash(s string) (store.Hash, error) {
	var h store.Hash
	raw, err := hex.DecodeString(s)
	if err != nil || len(raw) != len(h) {
		return h, fmt.Errorf("bad identity %q", s)
	}
	copy(h[:], raw)
	return h, nil
}
