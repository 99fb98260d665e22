package opgate

import (
	"opgate/internal/harness"
	"opgate/internal/store"
)

// Report is a regenerated table or figure as structured data: labelled
// rows of named numeric columns (or freeform text lines) plus unit and
// schema metadata. See Report.Format, Report.Value, Report.Diff and the
// Renderer implementations.
type Report = harness.Report

// Row is one labelled series of report values.
type Row = harness.Row

// CellDiff is one difference between two reports (Report.Diff).
type CellDiff = harness.CellDiff

// Renderer turns a structured report sequence into a byte stream.
type Renderer = harness.Renderer

// TextRenderer reproduces the classic aligned-table report layout.
type TextRenderer = harness.TextRenderer

// JSONRenderer emits the canonical JSON report encoding.
type JSONRenderer = harness.JSONRenderer

// SweepReport is one experiment's report grid across a threshold sweep
// (Session.Sweep): Cells[i] holds the report at Thresholds[i]. See
// SweepReport.Format, SweepReport.Cell and SweepReport.Diff.
type SweepReport = harness.SweepReport

// SweepCellDiff is one differing cell between two sweeps (SweepReport.Diff).
type SweepCellDiff = harness.SweepCellDiff

// Schema identifiers of the canonical JSON encodings.
const (
	ReportSchema    = harness.ReportSchema
	ReportSetSchema = harness.ReportSetSchema
	SweepSchema     = harness.SweepSchema
)

// EncodeReports renders a report sequence in its canonical, stable,
// content-addressable JSON form.
func EncodeReports(reports []*Report) ([]byte, error) {
	return harness.EncodeReports(reports)
}

// DecodeReports parses a canonical report-sequence encoding.
func DecodeReports(data []byte) ([]*Report, error) {
	return harness.DecodeReports(data)
}

// ValidThresholds rejects grids Sweep cannot evaluate: empty,
// non-positive values, or duplicates.
func ValidThresholds(thresholds []float64) error {
	return harness.ValidThresholds(thresholds)
}

// EncodeSweep renders a sweep in its canonical, stable,
// content-addressable JSON form.
func EncodeSweep(sw *SweepReport) ([]byte, error) {
	return harness.EncodeSweep(sw)
}

// DecodeSweep parses a canonical sweep encoding.
func DecodeSweep(data []byte) (*SweepReport, error) {
	return harness.DecodeSweep(data)
}

// Store is the persistent, content-addressed artifact store shared by
// sessions and the opgated service: packed retirement traces and report
// blobs survive the process under hash addresses, with atomic writes and
// LRU eviction under a byte budget. A store is an accelerator only — a
// damaged or missing object is a cache miss, never an error.
type Store = store.Store

// StoreStats are a store's hit/miss/eviction counters.
type StoreStats = store.Stats

// Backend is the raw byte-level storage contract a Store is layered
// over: Get/Put/Delete/Stats on opaque blobs under content-addressed
// keys. Implementations include the directory store, the HTTP object
// backend (package opgate/client), and the two-tier composition
// (store.NewTiered). Plug one into a session with WithStore(NewStore(b)).
type Backend = store.Backend

// NewStore layers the codec and reject-tracking Store API over any
// Backend.
func NewStore(b Backend) *Store { return store.NewStore(b) }

// OpenStore opens (or creates) a store rooted at dir. limitBytes bounds
// the store's size (LRU eviction); 0 means unlimited.
func OpenStore(dir string, limitBytes int64) (*Store, error) {
	return store.Open(dir, limitBytes)
}

// ParseSize parses a human-readable byte size ("256MiB", "2GiB", plain
// bytes) for store budgets.
func ParseSize(s string) (int64, error) { return store.ParseSize(s) }
