package emu

import (
	"sort"

	"opgate/internal/power"
)

// tnvCacheWays is the size of the inline hit-cache in front of the TNV
// map: value profiling is dominated by a handful of hot values (that is
// the premise of the top-N-values scheme), so a tiny move-to-front array
// of counter pointers absorbs almost every Record without a map lookup.
const tnvCacheWays = 4

// TNVTable is the fixed-size top-N-values profiling table of Calder et al.
// (the scheme §3.3 adopts): each profiled value is looked up; hits bump a
// counter; misses insert when space remains, otherwise the value is
// dropped. Periodically the least-frequently-used half is evicted so new
// hot values can enter. A separate counter tracks every profile event.
type TNVTable struct {
	Capacity   int
	Interval   int // events between cleanings
	Total      int64
	entries    map[int64]*int64
	sinceClean int

	// Inline hit-cache: the most recently hit values with pointers to
	// their counters, move-to-front. Invalidated on clean().
	cacheVal [tnvCacheWays]int64
	cacheCnt [tnvCacheWays]*int64

	// Width histogram: counts and extreme values per significant-byte
	// size (index 1..8). The TNV entries capture frequent single values;
	// the width buckets capture diffuse distributions (e.g. counters)
	// exactly, which is what range specialization needs.
	widthCount [9]int64
	widthMin   [9]int64
	widthMax   [9]int64
}

// NewTNVTable returns a table with the given capacity and cleaning
// interval (the paper does not give exact sizes; 32 entries cleaned every
// 2048 events behaves like the published scheme).
func NewTNVTable(capacity, interval int) *TNVTable {
	if capacity <= 0 {
		capacity = 32
	}
	if interval <= 0 {
		interval = 2048
	}
	return &TNVTable{
		Capacity: capacity,
		Interval: interval,
		entries:  make(map[int64]*int64, capacity),
	}
}

// Record profiles one value occurrence.
func (t *TNVTable) Record(v int64) {
	t.Total++
	t.sinceClean++
	// Frequent-value fast path: the head of the hit-cache.
	if c := t.cacheCnt[0]; c != nil && t.cacheVal[0] == v {
		*c++
	} else {
		t.recordSlow(v)
	}
	w := power.SignificantBytes(v)
	if t.widthCount[w] == 0 || v < t.widthMin[w] {
		t.widthMin[w] = v
	}
	if t.widthCount[w] == 0 || v > t.widthMax[w] {
		t.widthMax[w] = v
	}
	t.widthCount[w]++
	if t.sinceClean >= t.Interval {
		t.clean()
	}
}

// recordSlow handles cache-tail hits, map hits, and inserts.
func (t *TNVTable) recordSlow(v int64) {
	for i := 1; i < tnvCacheWays; i++ {
		if c := t.cacheCnt[i]; c != nil && t.cacheVal[i] == v {
			*c++
			t.promote(i, v, c)
			return
		}
	}
	if c, ok := t.entries[v]; ok {
		*c++
		t.promote(tnvCacheWays-1, v, c)
		return
	}
	if len(t.entries) < t.Capacity {
		c := new(int64)
		*c = 1
		t.entries[v] = c
		t.promote(tnvCacheWays-1, v, c)
	}
}

// promote moves a (value, counter) pair to the front of the hit-cache,
// shifting entries above position i down one slot.
func (t *TNVTable) promote(i int, v int64, c *int64) {
	copy(t.cacheVal[1:i+1], t.cacheVal[:i])
	copy(t.cacheCnt[1:i+1], t.cacheCnt[:i])
	t.cacheVal[0] = v
	t.cacheCnt[0] = c
}

// clean evicts the least frequently used half of the table.
func (t *TNVTable) clean() {
	t.sinceClean = 0
	if len(t.entries) < t.Capacity {
		return
	}
	vals := t.Entries()
	for i := len(vals) / 2; i < len(vals); i++ {
		delete(t.entries, vals[i].Value)
	}
	// Cached counter pointers may now point at evicted entries; drop them.
	t.cacheVal = [tnvCacheWays]int64{}
	t.cacheCnt = [tnvCacheWays]*int64{}
}

// ValueCount is one profiled value with its observed frequency.
type ValueCount struct {
	Value int64
	Count int64
}

// Entries returns the profiled values sorted by descending count (ties by
// ascending value, for determinism).
func (t *TNVTable) Entries() []ValueCount {
	out := make([]ValueCount, 0, len(t.entries))
	for v, c := range t.entries {
		out = append(out, ValueCount{v, *c})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Value < out[j].Value
	})
	return out
}

// CoverageRange finds a small [min,max] covering at least frac of the
// recorded events, and the exact frequency it covers. Two sources are
// consulted: a dominant single value in the TNV table (single-value
// specialization, min==max), else the width histogram — the smallest
// significant-byte size whose cumulative frequency reaches frac, with the
// exact extreme values seen at or below that size. ok is false when the
// table saw nothing.
func (t *TNVTable) CoverageRange(frac float64) (min, max int64, freq float64, ok bool) {
	if t.Total == 0 {
		return 0, 0, 0, false
	}
	// Single dominant value?
	if entries := t.Entries(); len(entries) > 0 {
		if f := float64(entries[0].Count) / float64(t.Total); f >= frac {
			v := entries[0].Value
			return v, v, f, true
		}
	}
	// Width buckets, narrowest first.
	var covered int64
	first := true
	for w := 1; w <= 8; w++ {
		if t.widthCount[w] == 0 {
			continue
		}
		covered += t.widthCount[w]
		if first {
			min, max = t.widthMin[w], t.widthMax[w]
			first = false
		} else {
			if t.widthMin[w] < min {
				min = t.widthMin[w]
			}
			if t.widthMax[w] > max {
				max = t.widthMax[w]
			}
		}
		if float64(covered) >= frac*float64(t.Total) {
			break
		}
	}
	if first {
		return 0, 0, 0, false
	}
	return min, max, float64(covered) / float64(t.Total), true
}

// Profiler is a train run's whole profile, read from its record stream
// (§3.3): Counts[i] is how often static instruction i retired — the
// paper's InstCount, the block profile — and Points[i] is i's TNV value
// table, nil where i is not value-profiled. A run that completes emits one
// record per retired instruction, HALT included, so Counts sums to the
// machine's Dyn.
type Profiler struct {
	Counts []int64
	Points []*TNVTable
}

// NewProfiler builds a profiler for a program of n static instructions
// that value-profiles the given points.
func NewProfiler(n int, points []int) *Profiler {
	p := &Profiler{Counts: make([]int64, n), Points: make([]*TNVTable, n)}
	for _, idx := range points {
		p.Points[idx] = NewTNVTable(0, 0)
	}
	return p
}

// ConsumeRecs implements Sink, the profiler's only input: one indexed pass
// over the batch's index and value columns, from a live run's batches or
// a captured trace's chunks alike.
func (p *Profiler) ConsumeRecs(b RecBatch) {
	counts, points := p.Counts, p.Points
	for i, idx := range b.Idx {
		counts[idx]++
		if t := points[idx]; t != nil {
			t.Record(b.Value[i])
		}
	}
}
