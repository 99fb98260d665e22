package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"opgate"
	"opgate/internal/harness"
)

// expectJSON holds the outputs recorded at the reference commit (see
// recordExpectations); a run's outputs must match them exactly.
//
//go:embed testdata/expect.json
var expectJSON []byte

const expectPath = "perfbench/testdata/expect.json"

type expectations struct {
	// Reports maps an input class ("ref", "train") to the digest of
	// `ogbench -experiment all -format json` on it.
	Reports map[string]string `json:"reports_sha256"`
	// Fig15 is the digest of the report bytes opgated -quick files for
	// fig15 at threshold 50.
	Fig15 string `json:"fig15_sha256"`
	// Sims maps an input class to every simulation the evaluation
	// performs, as exact numbers.
	Sims map[string][]simStat `json:"sims"`
}

func loadExpectations() (*expectations, error) {
	var e expectations
	if err := json.Unmarshal(expectJSON, &e); err != nil {
		return nil, fmt.Errorf("%s: %w", expectPath, err)
	}
	if e.Reports["ref"] == "" || e.Reports["train"] == "" || e.Fig15 == "" || len(e.Sims["ref"]) == 0 || len(e.Sims["train"]) == 0 {
		return nil, errors.New(expectPath + " is incomplete: record it with --record at the reference commit")
	}
	return &e, nil
}

// recordExpectations writes expect.json from this checkout's outputs. Run
// it only at a commit whose outputs are known good; every later run is
// checked against what it records.
func recordExpectations(ctx context.Context, o options) error {
	b := &bench{opts: o}
	e := expectations{Reports: map[string]string{}, Sims: map[string][]simStat{}}
	for _, quick := range []bool{false, true} {
		class := className(quick)
		args := evalArgs
		if quick {
			args = append(args, "-quick")
		}
		c, err := b.runChild(ctx, "ogbench", args...)
		if err != nil {
			return err
		}
		e.Reports[class] = digest(c.stdout)

		s := harness.NewSuite(quick)
		reports, err := s.RunAll(ctx, opgate.DefaultThreshold)
		if err != nil {
			return err
		}
		enc, err := harness.EncodeReports(reports)
		if err != nil {
			return err
		}
		if digest(enc) != e.Reports[class] {
			return fmt.Errorf("%s: in-process reports differ from ogbench's", class)
		}
		if e.Sims[class], err = simStats(s); err != nil {
			return err
		}
	}
	d, err := b.startDaemon(ctx, filepath.Join(o.work, "svc"), "-quick", "-workers", "2")
	if err != nil {
		return err
	}
	c, hc := newConn(d.base)
	blob, err := request(ctx, c, warmReq, nil, 0, "record")
	hc.CloseIdleConnections()
	if serr := d.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return err
	}
	e.Fig15 = digest(blob)

	out, err := json.MarshalIndent(e, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(expectPath, append(out, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, "perfbench: wrote", expectPath)
	return nil
}
