package harness

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden report files")

// quickInputs are the suites the goldens are rendered from: the default
// suite, and one whose one-byte TraceBudget admits no trace, so every
// simulation, histogram and record scan takes the live fallback
// (uarch.RunModes over live emulation). The second is the oracle the trace
// pipeline must match byte for byte.
var quickInputs = [...]struct {
	name   string
	budget int64
}{{"cached", 0}, {"uncached", 1}}

// quickRuns builds the full quick-mode report sequence (every table,
// figure and ablation at the default threshold) exactly once per input
// and shares it across the golden, JSON and round-trip tests — the suite
// memoizes everything, so one RunAll covers all of them.
var quickRuns [len(quickInputs)]struct {
	once       sync.Once
	suite      *Suite
	reports    []*Report
	emulations int64
	err        error
}

func quickReports(t *testing.T, input int) []*Report {
	t.Helper()
	run := &quickRuns[input]
	run.once.Do(func() {
		s := NewSuite(true)
		s.TraceBudget = quickInputs[input].budget
		run.suite = s
		run.reports, run.err = s.RunAll(context.Background(), 50)
		run.emulations = s.Emulations()
	})
	if run.err != nil {
		t.Fatal(run.err)
	}
	return run.reports
}

// forEachQuickInput runs check as a subtest over every quick input's
// reports, then confirms the uncached input really bypassed the trace
// cache (when both inputs ran).
func forEachQuickInput(t *testing.T, check func(t *testing.T, reports []*Report)) {
	for i, in := range quickInputs {
		t.Run(in.name, func(t *testing.T) { check(t, quickReports(t, i)) })
	}
	if quickRuns[0].reports == nil || quickRuns[1].reports == nil {
		return
	}
	if cached, uncached := quickRuns[0].emulations, quickRuns[1].emulations; uncached <= cached {
		t.Errorf("uncached suite performed %d emulations, cached %d: the budget did not force the live fallback",
			uncached, cached)
	}
}

// checkGolden compares got against the named golden file (rewriting it
// under -update), with a line-oriented first-difference report.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	golden := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", golden, len(got))
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (create with -update): %v", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gotLines := strings.Split(string(got), "\n")
	wantLines := strings.Split(string(want), "\n")
	for i := range gotLines {
		if i >= len(wantLines) || gotLines[i] != wantLines[i] {
			wantLine := "<EOF>"
			if i < len(wantLines) {
				wantLine = wantLines[i]
			}
			t.Fatalf("%s drifted at line %d:\n  got:  %q\n  want: %q\n(re-baseline deliberate changes with -update)",
				name, i+1, gotLines[i], wantLine)
		}
	}
	t.Fatalf("%s drifted: got %d lines, want %d (re-baseline with -update)",
		name, len(gotLines), len(wantLines))
}

// TestQuickReportGolden pins the full `ogbench -quick` text output to a
// committed golden file: the structured-report text renderer must
// reproduce the pre-structured pipeline byte-for-byte, so report drift —
// a changed kernel, power coefficient, pipeline constant or formatter —
// is caught in CI instead of by manual diffing. Deliberate changes
// re-baseline with:
//
//	go test ./internal/harness -run TestQuickReportGolden -update
func TestQuickReportGolden(t *testing.T) {
	forEachQuickInput(t, func(t *testing.T, reports []*Report) {
		var buf bytes.Buffer
		if err := (TextRenderer{}).Render(&buf, reports); err != nil {
			t.Fatal(err)
		}
		checkGolden(t, "ogbench_quick.golden", buf.Bytes())
	})
}

// TestQuickReportJSONGolden pins the canonical JSON encoding of the same
// run (`ogbench -quick -format json`), so the machine-readable schema is
// as regression-guarded as the text layout.
func TestQuickReportJSONGolden(t *testing.T) {
	forEachQuickInput(t, func(t *testing.T, reports []*Report) {
		var buf bytes.Buffer
		if err := (JSONRenderer{}).Render(&buf, reports); err != nil {
			t.Fatal(err)
		}
		checkGolden(t, "ogbench_quick_json.golden", buf.Bytes())
	})
}

// TestReportJSONRoundTrip is the codec property over every experiment in
// Experiments(): decode(encode(reports)) reproduces every report exactly
// (Equal), re-encoding the decoded value reproduces the canonical bytes,
// and per-report encodings are individually stable.
func TestReportJSONRoundTrip(t *testing.T) {
	reports := quickReports(t, 0)
	if want := len(Experiments()); len(reports) != want {
		t.Fatalf("RunAll returned %d reports, want %d (one per experiment)", len(reports), want)
	}
	blob, err := EncodeReports(reports)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodeReports(blob)
	if err != nil {
		t.Fatal(err)
	}
	if len(decoded) != len(reports) {
		t.Fatalf("decoded %d reports, want %d", len(decoded), len(reports))
	}
	for i, r := range reports {
		d := decoded[i]
		if !d.Equal(r) {
			t.Errorf("%s: decode(encode) != original", r.ID)
		}
		if diffs := r.Diff(d); len(diffs) != 0 {
			t.Errorf("%s: Diff(decoded) reports %d cells on identical reports: %+v", r.ID, len(diffs), diffs[0])
		}
		b1, err := json.Marshal(r)
		if err != nil {
			t.Fatalf("%s: %v", r.ID, err)
		}
		b2, err := json.Marshal(d)
		if err != nil {
			t.Fatalf("%s: %v", r.ID, err)
		}
		if !bytes.Equal(b1, b2) {
			t.Errorf("%s: canonical bytes unstable across a round trip", r.ID)
		}
	}
	reblob, err := EncodeReports(decoded)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blob, reblob) {
		t.Fatal("canonical report-sequence bytes unstable across a round trip")
	}
}

// TestExperimentDescriptorsMatchReports: the descriptor metadata shown
// without running anything (IDs, titles) must match what the built
// reports carry, and every report must declare a unit.
func TestExperimentDescriptorsMatchReports(t *testing.T) {
	reports := quickReports(t, 0)
	for i, e := range Experiments() {
		r := reports[i]
		if r.ID != e.ID {
			t.Errorf("experiment %d: descriptor ID %q, report ID %q", i, e.ID, r.ID)
		}
		if r.Title != e.Title {
			t.Errorf("%s: descriptor title %q, report title %q", e.ID, e.Title, r.Title)
		}
		if r.Unit == "" {
			t.Errorf("%s: report declares no unit", e.ID)
		}
		if r.Units != nil && len(r.Units) != len(r.Columns) {
			t.Errorf("%s: %d per-column units for %d columns", e.ID, len(r.Units), len(r.Columns))
		}
	}
}
