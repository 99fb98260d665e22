package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from outside the
// program: its name, start and end (ms since the tracer started), the
// span that caused it, and an ID shared per (workload, variant) or per
// request.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // 0 for a top-level span
	Name   string  `json:"name"`
	Group  string  `json:"group"`
	Start  float64 `json:"start_ms"`
	End    float64 `json:"end_ms"`
}

func (s span) dur() float64 { return s.End - s.Start }

// tracer keeps spans in memory until the run writes them out. A nil
// tracer records nothing. It is safe for concurrent use.
type tracer struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) now() float64 { return float64(time.Since(t.origin)) / 1e6 }

// do runs fn inside a span and returns fn's error; fn receives the span's
// ID to parent its own spans.
func (t *tracer) do(parent int, name, group string, fn func(id int) error) error {
	if t == nil {
		return fn(0)
	}
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Group: group})
	t.mu.Unlock()
	start := t.now()
	err := fn(id)
	end := t.now()
	t.mu.Lock()
	t.spans[id-1].Start, t.spans[id-1].End = start, end
	t.mu.Unlock()
	return err
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfRow aggregates the spans of one name.
type selfRow struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
}

// selfTimes returns, per span name, the total time and the self time: a
// span's duration minus the part of it its child spans cover. Sorted by
// self time, largest first.
func selfTimes(spans []span) []selfRow {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	rows := map[string]*selfRow{}
	for _, s := range spans {
		r := rows[s.Name]
		if r == nil {
			r = &selfRow{Name: s.Name}
			rows[s.Name] = r
		}
		r.Count++
		r.TotalMs += s.dur()
		r.SelfMs += s.dur() - covered(s, children[s.ID])
	}
	out := make([]selfRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].SelfMs != out[j].SelfMs {
			return out[i].SelfMs > out[j].SelfMs
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// covered returns how much of parent's interval the union of kids covers.
func covered(parent span, kids []span) float64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total, end float64
	end = parent.Start
	for _, k := range kids {
		lo, hi := max(k.Start, end), min(k.End, parent.End)
		if hi > lo {
			total += hi - lo
			end = hi
		}
	}
	return total
}

// writeSpans writes every span and the self-time table as one JSON
// document.
func writeSpans(path string, spans []span, self []selfRow) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", " ")
	if err := enc.Encode(struct {
		Spans []span    `json:"spans"`
		Self  []selfRow `json:"self_time"`
	}{spans, self}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printSelf prints the self-time table's largest rows.
func printSelf(w io.Writer, self []selfRow, limit int) {
	fmt.Fprintf(w, "%-34s %7s %12s %12s\n", "span", "count", "total_ms", "self_ms")
	for i, r := range self {
		if i == limit {
			fmt.Fprintf(w, "... %d more in the span file\n", len(self)-limit)
			break
		}
		fmt.Fprintf(w, "%-34s %7d %12.1f %12.1f\n", r.Name, r.Count, r.TotalMs, r.SelfMs)
	}
}
