package vrs_test

import (
	"context"
	"testing"

	"opgate/internal/harness"
	"opgate/internal/vrs"
	"opgate/internal/workload"
)

// TestSweepTransformsOncePerPrefix is the cost probe of Select's prefix
// memo: a 40-threshold quick sweep of Figure 4 transforms each workload
// once per distinct selected prefix, counted from scratch, where a
// transform per threshold would make 40 per workload.
func TestSweepTransformsOncePerPrefix(t *testing.T) {
	grid := make([]float64, 40)
	for i := range grid {
		grid[i] = 10 + float64(i)*190/39
	}
	s := harness.NewSuite(true)
	before := vrs.Transforms()
	if _, err := s.Sweep(context.Background(), "fig4", grid); err != nil {
		t.Fatal(err)
	}
	got := vrs.Transforms() - before

	var want int64
	for _, name := range s.Names() {
		w, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		p, err := w.Build(workload.Train) // quick: train inputs throughout
		if err != nil {
			t.Fatal(err)
		}
		pf, err := vrs.NewProfile(p, p, vrs.Options{})
		if err != nil {
			t.Fatal(err)
		}
		prefixes := map[int]bool{}
		for _, th := range grid {
			prefixes[vrs.ProfitableFromScratch(pf, th)] = true
		}
		want += int64(len(prefixes))
	}
	if got != want {
		t.Errorf("%d-threshold sweep ran %d transforms, want %d (one per distinct prefix per workload)", len(grid), got, want)
	}
	if perThreshold := int64(len(grid) * len(s.Names())); want >= perThreshold {
		t.Errorf("the grid selects %d distinct prefixes, no fewer than its %d (workload, threshold) pairs: the probe proves nothing", want, perThreshold)
	}
}
