package vrs

import (
	"cmp"
	"fmt"
	"math"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"

	"opgate/internal/interval"
	"opgate/internal/prog"
	"opgate/internal/store"
	"opgate/internal/workload"
)

// evaluate is the from-scratch §3.4 filter Select replaces: with profiled
// value ranges in hand, compute Savings·Freq − Cost − Threshold for every
// candidate, then sort the points by that benefit.
func evaluate(pf *Profile, opts Options) []Point {
	counts := pf.profiler.Counts
	p, base, prof := pf.refProg, pf.base, pf.profiler
	points := make([]Point, 0, len(pf.points))
	for _, c := range pf.points {
		pt := Point{InsIdx: c.InsIdx, Count: c.Count, Outcome: NoBenefit}
		table := prof.Points[c.InsIdx]
		if table == nil || table.Total == 0 {
			points = append(points, pt)
			continue
		}
		min, max, freq, ok := table.CoverageRange(coverage)
		if !ok {
			points = append(points, pt)
			continue
		}
		newBytes := interval.New(minI64(min, max), maxI64(min, max)).Bytes()
		cur := effectiveBytes(base, c.InsIdx)
		pt.Min, pt.Max, pt.Freq = min, max, freq
		if newBytes >= cur {
			points = append(points, pt) // profile isn't narrower than statics
			continue
		}
		pt.Savings = savingsEstimate(p, base, c.InsIdx, newBytes, counts, 0)
		if min == max {
			pt.Savings += foldBonus(p, base, c.InsIdx, counts)
		}
		pt.Cost = float64(counts[c.InsIdx]) * guardCost(opts.Power, min, max)
		pt.Benefit = pt.Savings*freq - pt.Cost - opts.Threshold
		points = append(points, pt)
	}
	sort.Slice(points, func(a, b int) bool { return points[a].Benefit > points[b].Benefit })
	return points
}

// selectFromScratch is the oracle for Select: evaluate at the threshold,
// then transform every point with a positive benefit, in benefit order —
// no ranking, no prefix memo, no shared binary. Points of equal benefit
// go in instruction order, the tie rule of Profile's ranking: evaluate's
// sort is unstable, so without it the order of tied points, which decides
// which of two overlapping regions wins, would be the sort's accident.
// Ties are exact equal scores (ijpeg, go and li each have some), all
// negative, so they are picked only at negative thresholds.
func selectFromScratch(pf *Profile, threshold float64) (*Result, error) {
	opts := Options{Threshold: threshold}
	opts.defaults()
	points := evaluate(pf, opts)
	var picks []*Point
	for i := range points {
		if points[i].Benefit > 0 {
			picks = append(picks, &points[i])
		}
	}
	slices.SortStableFunc(picks, func(a, b *Point) int {
		if c := cmp.Compare(b.Benefit, a.Benefit); c != 0 {
			return c
		}
		return cmp.Compare(a.InsIdx, b.InsIdx)
	})
	res, err := transform(pf.refProg, pf.base, picks, pf.profiler.Counts)
	if err != nil {
		return nil, err
	}
	res.Points = points
	return res, nil
}

// oracleView is what the oracle comparison reads of a result: every
// point by instruction (and the points' order), the transformed
// program's index sets and statistics, and the identity of the binary the
// evaluation runs.
type oracleView struct {
	points       map[int]Point
	order        []int
	specialized  map[int][2]int // specialized InsIdx -> region
	guards, spec map[int]bool
	static, elim int
	binary       store.Hash
}

func viewOf(r *Result) oracleView {
	v := oracleView{
		points:      map[int]Point{},
		specialized: map[int][2]int{},
		guards:      r.GuardIns,
		spec:        r.SpecIns,
		static:      r.StaticSpecialized,
		elim:        r.StaticEliminated,
		binary:      store.ProgramIdentity(r.Apply()),
	}
	for _, pt := range r.Points {
		v.points[pt.InsIdx] = pt
		v.order = append(v.order, pt.InsIdx)
		if pt.Outcome == Specialized {
			v.specialized[pt.InsIdx] = [2]int{pt.RegionStart, pt.RegionEnd}
		}
	}
	return v
}

// diffViews describes the first difference between two views, or "".
func diffViews(got, want oracleView) string {
	if len(got.points) != len(want.points) {
		return fmt.Sprintf("%d points, want %d", len(got.points), len(want.points))
	}
	for idx, w := range want.points {
		g, ok := got.points[idx]
		switch {
		case !ok:
			return fmt.Sprintf("point %d missing", idx)
		case g.Outcome != w.Outcome:
			return fmt.Sprintf("point %d: outcome %v, want %v", idx, g.Outcome, w.Outcome)
		case math.Float64bits(g.Benefit) != math.Float64bits(w.Benefit):
			return fmt.Sprintf("point %d: benefit %v, want %v", idx, g.Benefit, w.Benefit)
		case g.RegionStart != w.RegionStart || g.RegionEnd != w.RegionEnd:
			return fmt.Sprintf("point %d: region [%d,%d), want [%d,%d)", idx, g.RegionStart, g.RegionEnd, w.RegionStart, w.RegionEnd)
		case g != w:
			return fmt.Sprintf("point %d: %+v, want %+v", idx, g, w)
		}
	}
	switch {
	case !slices.Equal(got.order, want.order):
		return fmt.Sprintf("point order %v, want %v", got.order, want.order)
	case !reflect.DeepEqual(got.guards, want.guards):
		return "guard instructions differ"
	case !reflect.DeepEqual(got.spec, want.spec):
		return "specialized instructions differ"
	case got.static != want.static || got.elim != want.elim:
		return fmt.Sprintf("static %d/%d, want %d/%d", got.static, got.elim, want.static, want.elim)
	case got.binary != want.binary:
		return "applied binary identity differs"
	}
	return ""
}

// kernelProfile is one kernel's profile on quick (ref = train) or ref
// evaluation inputs.
type kernelProfile struct {
	name string
	pf   *Profile
}

// kernelProfiles builds fresh profiles of every kernel, quick and ref.
func kernelProfiles(t *testing.T) []kernelProfile {
	t.Helper()
	var out []kernelProfile
	for _, w := range workload.All() {
		trainP, err := w.Build(workload.Train)
		if err != nil {
			t.Fatal(err)
		}
		refP, err := w.Build(workload.Ref)
		if err != nil {
			t.Fatal(err)
		}
		for _, eval := range []struct {
			class string
			p     *prog.Program
		}{{"quick", trainP}, {"ref", refP}} {
			pf, err := NewProfile(trainP, eval.p, Options{})
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, kernelProfile{w.Name + "/" + eval.class, pf})
		}
	}
	return out
}

// oracleThresholds is the comparison grid of a profile: 40 thresholds
// spread over [10, 200], the paper's five, and every ranked score with
// both of its floating-point neighbours — the exact breakpoints at which
// a point enters or leaves the selection.
func oracleThresholds(pf *Profile) []float64 {
	var ths []float64
	for i := 0; i < 40; i++ {
		ths = append(ths, 10+float64(i)*190/39)
	}
	ths = append(ths, 110, 90, 70, 50, 30)
	for _, rk := range pf.ranked {
		ths = append(ths, rk.score, math.Nextafter(rk.score, math.Inf(-1)), math.Nextafter(rk.score, math.Inf(1)))
	}
	return ths
}

// TestSelectMatchesFromScratch is the oracle comparison: at every
// threshold of oracleThresholds, on every kernel with quick and ref
// inputs, Select's result reads exactly as a from-scratch evaluate and
// transform at that threshold — every point's outcome, benefit bits and
// region, the guard and clone index sets, the static statistics and the
// identity of the applied binary.
func TestSelectMatchesFromScratch(t *testing.T) {
	checked, breakpoints := 0, 0
	for _, kp := range kernelProfiles(t) {
		breakpoints += len(kp.pf.ranked)
		for _, th := range oracleThresholds(kp.pf) {
			got, err := kp.pf.Select(th)
			if err != nil {
				t.Fatal(err)
			}
			want, err := selectFromScratch(kp.pf, th)
			if err != nil {
				t.Fatal(err)
			}
			if d := diffViews(viewOf(got), viewOf(want)); d != "" {
				t.Fatalf("%s at threshold %v (%x): %s", kp.name, th, math.Float64bits(th), d)
			}
			checked++
		}
	}
	if breakpoints == 0 {
		t.Fatal("no kernel scored a point; the breakpoints went untested")
	}
	t.Logf("%d (profile, threshold) pairs, %d scored points", checked, breakpoints)
}

// TestSelectionsNest is the nesting property of §3.4's ranking: lowering
// the threshold only lengthens the selected prefix, and each transform
// decision depends only on earlier points, so for θ1 < θ2 every point
// specialized at θ2 is specialized at θ1, over the same region.
func TestSelectionsNest(t *testing.T) {
	grew := false
	for _, kp := range kernelProfiles(t) {
		ths := oracleThresholds(kp.pf)
		slices.Sort(ths)
		ths = slices.Compact(ths)
		var prev map[int][2]int // at the next-lower threshold
		for _, th := range ths {
			r, err := kp.pf.Select(th)
			if err != nil {
				t.Fatal(err)
			}
			cur := viewOf(r).specialized
			if prev != nil {
				for idx, region := range cur {
					if was, ok := prev[idx]; !ok || was != region {
						t.Fatalf("%s: point %d specialized over %v at threshold %v, not so at a lower one",
							kp.name, idx, region, th)
					}
				}
				grew = grew || len(prev) > len(cur)
			}
			prev = cur
		}
	}
	if !grew {
		t.Fatal("no kernel's selection changed across the grid; the property went untested")
	}
}

// TestConcurrentSelectMatchesFromScratch: sixteen goroutines select at
// mixed thresholds from one fresh Profile, so first transforms and first
// applies race each other; every result equals the oracle's.
func TestConcurrentSelectMatchesFromScratch(t *testing.T) {
	// The kernel profile with the longest ranking, fresh: nothing has
	// selected from it yet.
	var pf *Profile
	for _, kp := range kernelProfiles(t) {
		if pf == nil || len(kp.pf.ranked) > len(pf.ranked) {
			pf = kp.pf
		}
	}
	ths := oracleThresholds(pf)
	want := make([]oracleView, len(ths))
	for i, th := range ths {
		r, err := selectFromScratch(pf, th)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = viewOf(r)
	}
	const goroutines = 16
	got := make([][]oracleView, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got[g] = make([]oracleView, len(ths))
			n := len(ths)
			for j := range ths {
				i := (j + g*n/goroutines) % n // a different order per goroutine
				if g%2 == 1 {
					i = n - 1 - i
				}
				r, err := pf.Select(ths[i])
				if err != nil {
					errs[g] = err
					return
				}
				got[g][i] = viewOf(r)
			}
		}(g)
	}
	wg.Wait()
	for g := range got {
		if errs[g] != nil {
			t.Fatal(errs[g])
		}
		for i := range ths {
			if d := diffViews(got[g][i], want[i]); d != "" {
				t.Fatalf("goroutine %d at threshold %v: %s", g, ths[i], d)
			}
		}
	}
}
