// Command ogtrace moves retirement traces across the pipeline boundary:
// any workload the registry can build is exported as a codec-framed
// trace blob, and any blob that speaks the format — exported here or
// produced by an external tracer — is imported into a store as a
// first-class "trace:" workload.
//
// Usage:
//
//	ogtrace export -workload syn:narrow/small/5 -class train -o twin.ogtr
//	ogtrace import -store DIR -name narrowtwin -class train twin.ogtr
//	ogtrace inspect twin.ogtr
//	ogtrace validate twin.ogtr
//	ogtrace list -store DIR
//
// export builds the named workload at the given input class, captures
// its retirement trace and writes the blob under the native binary's
// identity. import validates the blob end to end (framing, record
// sanity, skeleton synthesis, canonical re-encoding) and registers it
// under trace:<name>; from then on ogbench and opgated evaluate it by
// that name through every replay-capable experiment, with zero
// emulations. inspect and validate work on local files without a store;
// list shows what a store has imported.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"

	"opgate"
	"opgate/internal/emu"
	"opgate/internal/store"
	"opgate/internal/tracework"
	"opgate/internal/workload"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "export":
		err = runExport(os.Args[2:])
	case "import":
		err = runImport(os.Args[2:])
	case "inspect":
		err = runInspect(os.Args[2:])
	case "validate":
		err = runValidate(os.Args[2:])
	case "list":
		err = runList(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "ogtrace: unknown subcommand %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "ogtrace:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `usage:
  ogtrace export -workload NAME [-class train|ref] [-o FILE]
  ogtrace import -store DIR [-store-limit SIZE] -name NAME [-class train|ref] FILE
  ogtrace inspect FILE
  ogtrace validate FILE
  ogtrace list -store DIR [-store-limit SIZE]
`)
}

// parseClass maps the -class flag onto the registry's input classes.
func parseClass(s string) (workload.InputClass, error) {
	switch s {
	case "train":
		return workload.Train, nil
	case "ref":
		return workload.Ref, nil
	}
	return 0, fmt.Errorf("-class %q: want train or ref", s)
}

// openStore resolves the -store/-store-limit pair shared by the
// store-bound subcommands.
func openStore(dir, limit string) (*store.Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("-store is required")
	}
	bytes, err := opgate.ParseSize(limit)
	if err != nil {
		return nil, fmt.Errorf("-store-limit: %w", err)
	}
	return store.Open(dir, bytes)
}

// runExport builds a workload, captures its retirement trace and writes
// the codec-framed blob under the native program's identity — the exact
// bytes a warm store would hold for that (workload, class).
func runExport(args []string) error {
	fs := flag.NewFlagSet("ogtrace export", flag.ExitOnError)
	name := fs.String("workload", "", "registry workload name (kernel or syn:... generation)")
	class := fs.String("class", "train", "input class to capture: train|ref")
	out := fs.String("o", "-", `output file ("-" = stdout)`)
	_ = fs.Parse(args)
	if *name == "" {
		return fmt.Errorf("export: -workload is required")
	}
	c, err := parseClass(*class)
	if err != nil {
		return err
	}
	w, err := workload.ByName(*name)
	if err != nil {
		return err
	}
	p, err := w.Build(c)
	if err != nil {
		return fmt.Errorf("building %s/%s: %w", *name, c, err)
	}
	rec := emu.NewTraceRecorder(p)
	m := emu.New(p)
	defer m.Release()
	m.Sink = rec
	if err := m.Run(); err != nil {
		return fmt.Errorf("emulating %s/%s: %w", *name, c, err)
	}
	tr, err := rec.Trace()
	if err != nil {
		return fmt.Errorf("capturing %s/%s trace: %w", *name, c, err)
	}
	blob := store.EncodeTrace(tr, store.ProgramIdentity(p))
	if *out == "-" {
		_, err := os.Stdout.Write(blob)
		return err
	}
	if err := os.WriteFile(*out, blob, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "ogtrace: exported %s/%s: %d events, %d bytes -> %s\n",
		*name, c, tr.Len(), len(blob), *out)
	return nil
}

// runImport ingests a trace blob and registers it in the store under
// trace:<name> for one input class.
func runImport(args []string) error {
	fs := flag.NewFlagSet("ogtrace import", flag.ExitOnError)
	dir := fs.String("store", "", "persistent store directory (required)")
	limit := fs.String("store-limit", "2GiB", "store size budget, e.g. 256MiB, 2GiB, or bytes (0 = unlimited)")
	name := fs.String("name", "", `registry name to import under (with or without the "trace:" prefix)`)
	class := fs.String("class", "train", "input class the records stand in for: train|ref")
	_ = fs.Parse(args)
	if *name == "" {
		return fmt.Errorf("import: -name is required")
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("import: want exactly one trace file, got %d", fs.NArg())
	}
	c, err := parseClass(*class)
	if err != nil {
		return err
	}
	full := *name
	if !workload.IsTrace(full) {
		full = workload.TraceName(full)
	}
	data, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	ing, err := tracework.Ingest(data)
	if err != nil {
		return err
	}
	st, err := openStore(*dir, *limit)
	if err != nil {
		return err
	}
	if err := tracework.NewLibrary(st).Put(full, c, ing); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "ogtrace: imported %s %s: %d events, %d static instructions, identity %s\n",
		full, c, ing.Events, ing.StaticIns, ing.Identity)
	fmt.Println(full)
	return nil
}

// runInspect decodes a trace blob and prints its shape without touching
// any store: the identity the blob declares, the identity the skeleton
// synthesized from its records hashes to (the address an import would
// use), and whether the blob is already in canonical form.
func runInspect(args []string) error {
	fs := flag.NewFlagSet("ogtrace inspect", flag.ExitOnError)
	_ = fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("inspect: want exactly one trace file, got %d", fs.NArg())
	}
	data, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	_, declared, err := store.DecodeTraceRecords(data)
	if err != nil {
		return err
	}
	ing, err := tracework.Ingest(data)
	if err != nil {
		return err
	}
	fmt.Printf("events:             %d\n", ing.Events)
	fmt.Printf("static instructions: %d\n", ing.StaticIns)
	fmt.Printf("declared identity:  %s\n", declared)
	fmt.Printf("skeleton identity:  %s\n", ing.Identity)
	fmt.Printf("canonical:          %v\n", bytes.Equal(data, ing.Canonical))
	fmt.Printf("bytes:              %d\n", len(data))
	return nil
}

// runValidate runs the full ingestion pipeline on a blob and reports
// pass/fail — the pre-flight check for a blob produced by an external
// tracer.
func runValidate(args []string) error {
	fs := flag.NewFlagSet("ogtrace validate", flag.ExitOnError)
	_ = fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("validate: want exactly one trace file, got %d", fs.NArg())
	}
	data, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	ing, err := tracework.Ingest(data)
	if err != nil {
		return err
	}
	fmt.Printf("ok: %d events over %d static instructions, identity %s\n",
		ing.Events, ing.StaticIns, ing.Identity)
	return nil
}

// runList prints a store's imported-trace index.
func runList(args []string) error {
	fs := flag.NewFlagSet("ogtrace list", flag.ExitOnError)
	dir := fs.String("store", "", "persistent store directory (required)")
	limit := fs.String("store-limit", "2GiB", "store size budget")
	_ = fs.Parse(args)
	st, err := openStore(*dir, *limit)
	if err != nil {
		return err
	}
	lib := tracework.NewLibrary(st)
	entries := lib.List()
	if len(entries) == 0 {
		fmt.Fprintln(os.Stderr, "ogtrace: no imported traces")
		return nil
	}
	for _, e := range entries {
		c, err := parseClass(e.Class)
		if err != nil {
			fmt.Printf("%s\t%s\t(unknown class)\n", e.Name, e.Class)
			continue
		}
		if m, err := lib.Lookup(e.Name, c); err == nil {
			fmt.Printf("%s\t%s\t%d events\t%d static\t%s\n", m.Name, m.Class, m.Events, m.StaticIns, m.Identity)
		} else {
			fmt.Printf("%s\t%s\t(%v)\n", e.Name, e.Class, err)
		}
	}
	return nil
}
