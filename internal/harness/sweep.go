package harness

import (
	"context"
	"encoding/json"
	"fmt"
	"slices"
	"strings"
)

// SweepSchema tags the canonical encoding of a threshold sweep: one
// experiment evaluated across a grid of VRS thresholds, with the
// threshold as a first-class report axis.
const SweepSchema = "opgate.sweep/v1"

// SweepReport is one experiment's report grid across a threshold sweep:
// Cells[i] is the experiment's Report at Thresholds[i]. Each cell is
// bit-identical to the report a plain single-threshold run produces — the
// sweep changes how the grid is computed (one shared train profile per
// workload instead of one per threshold), never what it contains.
type SweepReport struct {
	ID         string
	Title      string
	Thresholds []float64
	Cells      []*Report
}

// Cell returns the report at one threshold of the grid.
func (sw *SweepReport) Cell(threshold float64) (*Report, bool) {
	for i, th := range sw.Thresholds {
		if th == threshold && i < len(sw.Cells) {
			return sw.Cells[i], true
		}
	}
	return nil, false
}

// Equal reports whether two sweeps carry identical data (the JSON
// round-trip invariant).
func (sw *SweepReport) Equal(o *SweepReport) bool {
	if sw.ID != o.ID || sw.Title != o.Title ||
		!slices.Equal(sw.Thresholds, o.Thresholds) || len(sw.Cells) != len(o.Cells) {
		return false
	}
	for i := range sw.Cells {
		if !sw.Cells[i].Equal(o.Cells[i]) {
			return false
		}
	}
	return true
}

// SweepCellDiff is one differing cell between two sweeps, locating the
// disagreement on the threshold axis as well as (row, column).
type SweepCellDiff struct {
	Threshold float64 `json:"threshold"`
	CellDiff
}

// Diff compares two sweeps cell-by-cell: per-threshold report diffs in
// sw's grid order, then thresholds only the other sweep has. An empty
// result means the grids agree everywhere.
func (sw *SweepReport) Diff(o *SweepReport) []SweepCellDiff {
	var ds []SweepCellDiff
	empty := &Report{}
	for i, th := range sw.Thresholds {
		oc, ok := o.Cell(th)
		if !ok {
			oc = empty // whole threshold missing: every cell is OnlyIn "a"
		}
		for _, d := range sw.Cells[i].Diff(oc) {
			ds = append(ds, SweepCellDiff{th, d})
		}
	}
	for i, th := range o.Thresholds {
		if _, ok := sw.Cell(th); ok {
			continue
		}
		for _, d := range empty.Diff(o.Cells[i]) {
			ds = append(ds, SweepCellDiff{th, d})
		}
	}
	return ds
}

// Format renders the sweep as text: a grid header, then each threshold's
// report in grid order (the same table a single-threshold run prints).
func (sw *SweepReport) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "==== sweep %s: %s (thresholds %s) ====\n",
		sw.ID, sw.Title, FormatThresholds(sw.Thresholds))
	for i, th := range sw.Thresholds {
		fmt.Fprintf(&sb, "--- threshold %g ---\n", th)
		sb.WriteString(sw.Cells[i].Format())
		if i < len(sw.Thresholds)-1 {
			sb.WriteByte('\n')
		}
	}
	return sb.String()
}

// FormatThresholds renders a grid as a comma-separated list with
// vrsVariant's %g formatting — the canonical spelling shared by report
// labels, store keys, and sweep job specs.
func FormatThresholds(thresholds []float64) string {
	parts := make([]string, len(thresholds))
	for i, th := range thresholds {
		parts[i] = fmt.Sprintf("%g", th)
	}
	return strings.Join(parts, ",")
}

// sweepJSON is the canonical wire form: fixed field order, schema first.
type sweepJSON struct {
	Schema     string    `json:"schema"`
	ID         string    `json:"id"`
	Title      string    `json:"title"`
	Thresholds []float64 `json:"thresholds"`
	Cells      []*Report `json:"cells"`
}

// MarshalJSON encodes the sweep canonically (deterministic field order
// and float formatting, so encode(decode(b)) == b).
func (sw *SweepReport) MarshalJSON() ([]byte, error) {
	return json.Marshal(sweepJSON{
		Schema: SweepSchema, ID: sw.ID, Title: sw.Title,
		Thresholds: sw.Thresholds, Cells: sw.Cells,
	})
}

// UnmarshalJSON decodes a canonical sweep, refusing unknown schemas.
func (sw *SweepReport) UnmarshalJSON(data []byte) error {
	var j sweepJSON
	if err := json.Unmarshal(data, &j); err != nil {
		return err
	}
	if j.Schema != SweepSchema {
		return fmt.Errorf("harness: sweep schema %q, want %q", j.Schema, SweepSchema)
	}
	sw.ID, sw.Title, sw.Thresholds, sw.Cells = j.ID, j.Title, j.Thresholds, j.Cells
	return nil
}

// EncodeSweep renders a sweep in the canonical machine-readable form: a
// one-line JSON document terminated by a newline, byte-stable under
// decode/encode so it can be content-addressed and diffed.
func EncodeSweep(sw *SweepReport) ([]byte, error) {
	b, err := json.Marshal(sw)
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// DecodeSweep parses a canonical sweep encoding.
func DecodeSweep(data []byte) (*SweepReport, error) {
	sw := new(SweepReport)
	if err := json.Unmarshal(data, sw); err != nil {
		return nil, fmt.Errorf("harness: decode sweep: %w", err)
	}
	return sw, nil
}

// ValidThresholds rejects grids no sweep can evaluate: empty, non-positive
// values (AtThreshold's rule), or duplicates (which would make cell
// addressing by threshold ambiguous).
func ValidThresholds(thresholds []float64) error {
	if len(thresholds) == 0 {
		return fmt.Errorf("empty threshold grid")
	}
	for i, th := range thresholds {
		if !(th > 0) {
			return fmt.Errorf("threshold %g: must be > 0", th)
		}
		if slices.Index(thresholds, th) != i {
			return fmt.Errorf("duplicate threshold %g in grid", th)
		}
	}
	return nil
}

// Sweep evaluates one experiment across a threshold grid, paying the
// threshold-independent work once: the (workload × threshold) VRS grid is
// pre-built over the bounded worker pool through the shared per-workload
// train profile (one train emulation per workload, however many
// thresholds), and the baseline/VRP artifacts every cell reads are shared
// through the ordinary suite memos. The cells themselves are then built
// in grid order with the exact single-threshold drivers, so each is
// byte-identical to a plain RunExperiment at that threshold.
func (s *Suite) Sweep(ctx context.Context, id string, thresholds []float64) (*SweepReport, error) {
	e, ok := LookupExperiment(id)
	if !ok {
		return nil, fmt.Errorf("unknown experiment %q", id)
	}
	if err := ValidThresholds(thresholds); err != nil {
		return nil, fmt.Errorf("harness: sweep %s: %w", id, err)
	}
	if e.Thresholded {
		// Warm the specialization grid concurrently. Threshold-independent
		// experiments skip this: they never touch VRS at the requested
		// threshold, and warming would add train work a plain run avoids.
		type gridCell struct {
			name string
			th   float64
		}
		grid := make([]gridCell, 0, len(s.Names())*len(thresholds))
		for _, name := range s.Names() {
			for _, th := range thresholds {
				grid = append(grid, gridCell{name, th})
			}
		}
		if _, err := mapSlice(ctx, s.workers(), grid, func(c gridCell) (struct{}, error) {
			_, err := s.VRS(c.name, c.th)
			return struct{}{}, err
		}); err != nil {
			return nil, err
		}
	}
	cells := make([]*Report, len(thresholds))
	for i, th := range thresholds {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		r, err := e.Run(ctx, s, th)
		if err != nil {
			return nil, fmt.Errorf("%s@%g: %w", id, th, err)
		}
		cells[i] = r
	}
	return &SweepReport{
		ID: e.ID, Title: e.Title,
		Thresholds: slices.Clone(thresholds),
		Cells:      cells,
	}, nil
}
