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

	"opgate/internal/store"
)

var updateGolden = flag.Bool("update", false, "rewrite golden report files")

// quickInputs are the suites the goldens are rendered from: the default
// suite with no store, and the cold RunAll that fills a store ("uncached":
// it starts with no stored trace), whose live traversals capture every
// trace on the side and write it back. Both emulate each simulated binary
// once. storeReports adds the third input, the warm read of the same
// store.
var quickInputs = [...]struct {
	name  string
	store bool
}{{"cached", false}, {"uncached", true}}

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
	in := quickInputs[input]
	if in.store {
		storeReports(t) // runs every store-filling input
	}
	run := &quickRuns[input]
	run.once.Do(func() {
		s := NewSuite(true)
		run.suite = s
		run.reports, run.err = s.RunAll(context.Background(), 50)
		run.emulations = s.Emulations()
	})
	if run.err != nil {
		t.Fatal(run.err)
	}
	return run.reports
}

// storeRun fills a store with a cold quick RunAll — the store-filling
// quick input — then runs the third quick input: a warm RunAll whose
// every report byte comes back through the streamed store reader
// (store.ReadTrace) rather than a live emulation. The store lives in the
// first caller's temporary directory, removed when that test ends, so all
// of them run together.
var storeRun struct {
	once    sync.Once
	suite   *Suite
	reports []*Report
	err     error
}

func storeReports(t *testing.T) []*Report {
	t.Helper()
	storeRun.once.Do(func() {
		dir := t.TempDir()
		run := func() (*Suite, []*Report, error) {
			st, err := store.Open(dir, 0)
			if err != nil {
				return nil, nil, err
			}
			s := NewSuite(true)
			s.Store = st
			reports, err := s.RunAll(context.Background(), 50)
			return s, reports, err
		}
		for i, in := range quickInputs {
			if !in.store {
				continue
			}
			q := &quickRuns[i]
			q.once.Do(func() {
				q.suite, q.reports, q.err = run()
				if q.suite != nil {
					q.emulations = q.suite.Emulations()
				}
			})
			if storeRun.err = q.err; storeRun.err != nil {
				return
			}
		}
		storeRun.suite, storeRun.reports, storeRun.err = run()
	})
	if storeRun.err != nil {
		t.Fatal(storeRun.err)
	}
	return storeRun.reports
}

// forEachQuickInput runs check as a subtest over every quick input's
// reports — the two live suites and the warm store — then holds each
// input that ran to the emulation contract: the live suites emulate each
// distinct simulated binary exactly once (18), the cold store storing
// every capture, and the warm store emulates nothing.
func forEachQuickInput(t *testing.T, check func(t *testing.T, reports []*Report)) {
	for i, in := range quickInputs {
		t.Run(in.name, func(t *testing.T) { check(t, quickReports(t, i)) })
	}
	t.Run("store", func(t *testing.T) { check(t, storeReports(t)) })
	for i, in := range quickInputs {
		run := &quickRuns[i]
		if run.reports == nil {
			continue
		}
		if want := distinctBinaries(t, run.suite, simulatedLabels()...); run.emulations != want || want != 18 {
			t.Errorf("%s suite performed %d emulations, want %d, one per distinct simulated binary (18)", in.name, run.emulations, want)
		}
		if st := run.suite.Store; st != nil {
			if s := st.Stats(); s.Puts != run.emulations || s.Rejects != 0 {
				t.Errorf("%s suite stored %d traces and rejected %d objects, want %d and 0", in.name, s.Puts, s.Rejects, run.emulations)
			}
		}
	}
	if storeRun.reports != nil {
		if n := storeRun.suite.Emulations(); n != 0 {
			t.Errorf("warm-store suite performed %d emulations, want 0", n)
		}
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
