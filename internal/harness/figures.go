package harness

import (
	"context"
	"fmt"

	"opgate/internal/vrp"
	"opgate/internal/vrs"
)

// Figure2 reproduces the dynamic instruction-width distribution under
// conventional vs proposed (useful) value range propagation, averaged over
// the suite. The proposed analysis must find strictly more narrow
// instructions.
func (s *Suite) Figure2(ctx context.Context) (*Report, error) {
	type pair struct{ conv, useful vrp.WidthHistogram }
	pairs, err := mapNames(ctx, s, func(name string) (pair, error) {
		var pr pair
		var err error
		if pr.conv, err = s.DynWidthHistogram(name, "vrp-conv"); err != nil {
			return pr, err
		}
		pr.useful, err = s.DynWidthHistogram(name, "vrp")
		return pr, err
	})
	if err != nil {
		return nil, err
	}
	var conv, useful vrp.WidthHistogram
	for _, pr := range pairs {
		for i := 0; i < 4; i++ {
			conv.Count[i] += pr.conv.Count[i]
			useful.Count[i] += pr.useful.Count[i]
		}
	}
	rep := &Report{
		ID:      "fig2",
		Title:   "Dynamic instruction distribution by width: conventional vs proposed VRP",
		Unit:    "fraction",
		Columns: []string{"8 bits", "16 bits", "32 bits", "64 bits"},
		Percent: true,
	}
	rep.Rows = append(rep.Rows,
		Row{Label: "Conventional VRP", Values: fractions(conv)},
		Row{Label: "Proposed VRP", Values: fractions(useful)},
	)
	return rep, nil
}

func fractions(h vrp.WidthHistogram) []float64 {
	return []float64{h.Fraction(0), h.Fraction(1), h.Fraction(2), h.Fraction(3)}
}

// Figure4 reproduces the disposition of profiled points per benchmark:
// specialized, dependent on another point (subsumed), or no benefit.
func (s *Suite) Figure4(ctx context.Context, threshold float64) (*Report, error) {
	rep := &Report{
		ID:      "fig4",
		Title:   "Distribution of the points profiled after specialization",
		Unit:    "fraction",
		Units:   []string{"count", "fraction", "fraction", "fraction"},
		Columns: []string{"points", "specialized", "dependent", "no benefit"},
	}
	type pts struct{ n, spec, dep float64 }
	results, err := mapNames(ctx, s, func(name string) (pts, error) {
		r, err := s.VRS(name, threshold)
		if err != nil {
			return pts{}, err
		}
		var p pts
		for i := range r.Points {
			switch r.Points[i].Outcome {
			case vrs.Specialized:
				p.spec++
			case vrs.Subsumed:
				p.dep++
			}
		}
		p.n = float64(len(r.Points))
		return p, nil
	})
	if err != nil {
		return nil, err
	}
	var totPts, totSpec, totDep float64
	for i, name := range s.Names() {
		p := results[i]
		row := Row{Label: name, Values: []float64{p.n, 0, 0, 0}}
		if p.n > 0 {
			row.Values[1] = p.spec / p.n
			row.Values[2] = p.dep / p.n
			row.Values[3] = (p.n - p.spec - p.dep) / p.n
		}
		rep.Rows = append(rep.Rows, row)
		totPts += p.n
		totSpec += p.spec
		totDep += p.dep
	}
	if totPts > 0 {
		rep.Rows = append(rep.Rows, Row{Label: "Average", Values: []float64{
			totPts / float64(len(results)), totSpec / totPts, totDep / totPts,
			1 - (totSpec+totDep)/totPts}})
	}
	rep.Note = "columns 2-4 are fractions of profiled points; column 1 is the count (the paper's bar annotations)"
	return rep, nil
}

// Figure5 reproduces the static disposition of instructions inside
// specialized regions: kept (re-ranged) vs eliminated by constant
// propagation and dead-code elimination.
func (s *Suite) Figure5(ctx context.Context, threshold float64) (*Report, error) {
	rep := &Report{
		ID:      "fig5",
		Title:   "Distribution of the specialized instructions at compile time",
		Unit:    "fraction",
		Units:   []string{"count", "fraction", "fraction"},
		Columns: []string{"static instrs", "specialized", "eliminated"},
	}
	rows, err := mapNames(ctx, s, func(name string) (Row, error) {
		r, err := s.VRS(name, threshold)
		if err != nil {
			return Row{}, err
		}
		total := float64(r.StaticSpecialized + r.StaticEliminated)
		row := Row{Label: name, Values: []float64{total, 0, 0}}
		if total > 0 {
			row.Values[1] = float64(r.StaticSpecialized) / total
			row.Values[2] = float64(r.StaticEliminated) / total
		}
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	rep.Rows = append(rep.Rows, rows...)
	rep.Note = "benchmarks with zero profitable points have empty rows (the paper's gcc-like cases specialize most)"
	return rep, nil
}

// Figure6 reproduces the run-time share of specialized instructions and of
// the specialization comparisons (guards).
func (s *Suite) Figure6(ctx context.Context, threshold float64) (*Report, error) {
	rep := &Report{
		ID:      "fig6",
		Title:   "Distribution of run-time instructions: specialized vs guard comparisons",
		Unit:    "fraction",
		Columns: []string{"specialized", "comparisons"},
		Percent: true,
	}
	rows, err := mapNames(ctx, s, func(name string) (Row, error) {
		r, err := s.VRS(name, threshold)
		if err != nil {
			return Row{}, err
		}
		// Per-static execution counts come from the variant binary's
		// record profile; no fresh emulation is needed.
		prof, err := s.records(name, vrsVariant(threshold))
		if err != nil {
			return Row{}, err
		}
		var dyn int64
		for _, n := range prof.counts {
			dyn += n
		}
		var spec, guard int64
		for idx := range r.SpecIns {
			spec += prof.counts[idx]
		}
		for idx := range r.GuardIns {
			guard += prof.counts[idx]
		}
		specF := float64(spec) / float64(dyn)
		guardF := float64(guard) / float64(dyn)
		return Row{Label: name, Values: []float64{specF, guardF}}, nil
	})
	if err != nil {
		return nil, err
	}
	var sumSpec, sumGuard float64
	for _, row := range rows {
		rep.Rows = append(rep.Rows, row)
		sumSpec += row.Values[0]
		sumGuard += row.Values[1]
	}
	n := float64(len(rows))
	rep.Rows = append(rep.Rows, Row{Label: "Average", Values: []float64{sumSpec / n, sumGuard / n}})
	return rep, nil
}

// Figure7 reproduces the dynamic width distribution for the three value
// range mechanisms: none (the original binary), VRP, and VRS.
func (s *Suite) Figure7(ctx context.Context, threshold float64) (*Report, error) {
	variants := []struct{ label, variant string }{
		{"non", "base"},
		{"VRP", "vrp"},
		{vrsLabel(threshold, "uJ"), vrsVariant(threshold)},
	}
	rep := &Report{
		ID:      "fig7",
		Title:   "Run-time instructions according to width",
		Unit:    "fraction",
		Columns: []string{"8 bits", "16 bits", "32 bits", "64 bits"},
		Percent: true,
	}
	for _, v := range variants {
		hists, err := mapNames(ctx, s, func(name string) (vrp.WidthHistogram, error) {
			return s.DynWidthHistogram(name, v.variant)
		})
		if err != nil {
			return nil, err
		}
		var h vrp.WidthHistogram
		for _, hw := range hists {
			for i := 0; i < 4; i++ {
				h.Count[i] += hw.Count[i]
			}
		}
		rep.Rows = append(rep.Rows, Row{Label: v.label, Values: fractions(h)})
	}
	rep.Note = "our VRS gains are instruction eliminations plus guards (full-width compares), so its width shift is smaller than the paper's"
	return rep, nil
}

// vrsVariant names the VRS variant cache key for a threshold (%g renders
// integral thresholds without a decimal point, e.g. "vrs50").
func vrsVariant(threshold float64) string {
	return fmt.Sprintf("vrs%g", threshold)
}

// vrsLabel names a VRS report row/column for a threshold with the same %g
// rendering as vrsVariant, so non-integral grids (reachable via Sweep and
// AtThreshold) never truncate or collide in report labels.
func vrsLabel(threshold float64, unit string) string {
	return fmt.Sprintf("VRS %g%s", threshold, unit)
}

// vrpVRSColumns is the x-axis of Figs. 8 and 11: VRP followed by the
// paper's VRS threshold grid.
func vrpVRSColumns() []string {
	cols := make([]string, 0, 1+len(Thresholds))
	cols = append(cols, "VRP")
	for _, th := range Thresholds {
		cols = append(cols, vrsLabel(th, "nJ"))
	}
	return cols
}

// Figure12 reproduces the data-size distribution: the share of dynamic
// result values needing 1..8 significant bytes. The 5-byte peak comes from
// memory addresses (33+ bits), as in the paper.
func (s *Suite) Figure12(ctx context.Context) (*Report, error) {
	// The destination-write bit is folded into the packed record, so the
	// tally rides the base binary's traversal without re-deriving Dest()
	// per event.
	sizes, err := mapNames(ctx, s, func(name string) (*[9]int64, error) {
		prof, err := s.records(name, "base")
		if err != nil {
			return nil, err
		}
		return prof.sizes, nil
	})
	if err != nil {
		return nil, err
	}
	var counts [9]int64
	var total int64
	for _, t := range sizes {
		for i, n := range t {
			counts[i] += n
			total += n
		}
	}
	rep := &Report{
		ID:      "fig12",
		Title:   "Data size distribution (significant bytes of produced values)",
		Unit:    "fraction",
		Columns: []string{"1", "2", "3", "4", "5", "6", "7", "8"},
		Percent: true,
	}
	row := Row{Label: "occurrence"}
	for b := 1; b <= 8; b++ {
		row.Values = append(row.Values, float64(counts[b])/float64(total))
	}
	rep.Rows = append(rep.Rows, row)
	return rep, nil
}
