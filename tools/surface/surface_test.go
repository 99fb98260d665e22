// Package surface guards the module's internal API against regrowth.
//
// TestNoTestOnlyExports type-checks the module's non-test source, together
// with the benchmark module under perfbench/ (which calls the internal
// packages directly), and fails on any exported package-level name, or
// exported method, declared under internal/ or cmd/ that no non-test file
// references. Production code is what production calls: an API that only
// tests reach belongs in a _test.go file or nowhere.
//
// A method needs no direct reference when its receiver implements an
// interface that declares it (emu.Sink, store.Backend, fmt.Stringer,
// error, http.Handler, ...): callers reach it through the interface.
// Test-support code that other packages' tests share is listed in
// allowlist, one reason per entry. The public packages (the root opgate
// package and opgate/client) are API and are not scanned.
//
// Run it with the other tests:
//
//	go test ./tools/surface
package surface

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// allowlist names the exported declarations that only tests reach but
// that stay in non-test files because tests in other packages share them
// (a _test.go file is invisible outside its own package). A key is a
// package path relative to the module, then the name: "internal/x.Func",
// "internal/x.Type" or "internal/x.Type.Method"; a key ending in ".*"
// covers a whole package.
var allowlist = map[string]string{
	"internal/progen/difftest.*":                 "differential-test oracle package, imported only by tests",
	"internal/store.NewFaultFS":                  "fault-injection filesystem the root package's and the journal's chaos tests drive",
	"internal/store.FaultFS.Clear":               "FaultFS control for the root package's and the journal's chaos tests",
	"internal/store.FaultFS.Injected":            "FaultFS control for the root package's and the journal's chaos tests",
	"internal/store.FaultFS.FailWrites":          "FaultFS control for the root package's and the journal's chaos tests",
	"internal/store.FaultFS.FailRenames":         "FaultFS control for the root package's and the journal's chaos tests",
	"internal/store.FaultFS.TearRenames":         "FaultFS control for the root package's and the journal's chaos tests",
	"internal/store.FaultFS.FailRemoves":         "FaultFS control for the root package's and the journal's chaos tests",
	"internal/store.FaultFS.FailSyncs":           "FaultFS control for the root package's and the journal's chaos tests",
	"internal/store.FaultFS.DropUnsyncedRenames": "FaultFS control for the root package's and the journal's chaos tests",
	"internal/harness.Report.MustValue":          "cell accessor for tests; public through the opgate.Report alias",
	"internal/harness.SweepReport.Diff":          "public through the opgate.SweepReport alias (per-threshold diff)",
	"internal/harness.SweepReport.Equal":         "public through the opgate.SweepReport alias",
	"internal/interval.Interval.Contains":        "soundness oracle: interval and VRP tests check observed values against ranges",
	"internal/vrs.Profile.Counts":                "train-profile probe the harness tests compare against the suite's record profile",
}

// scanned reports whether a module-relative package path is internal
// surface the guard holds to production use.
func scanned(rel string) bool {
	return strings.HasPrefix(rel, "internal/") || strings.HasPrefix(rel, "cmd/")
}

func TestNoTestOnlyExports(t *testing.T) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go command not found:", err)
	}
	root, modPath := mainModule(t, goBin)
	s := newScanner()
	// The module first, then the benchmark module, whose listing repeats
	// the module packages it imports; deps come before their importers
	// in both.
	for _, dir := range []string{root, filepath.Join(root, "perfbench")} {
		for _, p := range goList(t, goBin, dir) {
			if err := s.add(p); err != nil {
				t.Fatal(err)
			}
		}
	}

	unused, stale := s.report(root, modPath)
	for _, k := range stale {
		t.Errorf("allowlist entry %q names no unreferenced declaration; drop it", k)
	}
	for _, u := range unused {
		t.Errorf("%s: exported %s is referenced by no non-test code; delete it, move it into a _test.go file, or unexport it", u.pos, u.key)
	}
}

// listed is the part of `go list -json` the scan reads.
type listed struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	Standard   bool
	Module     *struct{ Path string }
	Error      *struct{ Err string }
}

// mainModule returns the directory and path of the module under test.
func mainModule(t *testing.T, goBin string) (dir, path string) {
	t.Helper()
	out, err := exec.Command(goBin, "list", "-m", "-json").Output()
	if err != nil {
		t.Fatalf("go list -m: %v", err)
	}
	var m struct{ Path, Dir string }
	if err := json.Unmarshal(out, &m); err != nil {
		t.Fatalf("go list -m output: %v", err)
	}
	return m.Dir, m.Path
}

// goList lists the packages under dir and all their dependencies, with
// export data for the ones the scan imports rather than type-checks.
func goList(t *testing.T, goBin, dir string) []listed {
	t.Helper()
	cmd := exec.Command(goBin, "list", "-deps", "-export",
		"-json=ImportPath,Dir,GoFiles,Export,Standard,Module,Error", "./...")
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list in %s: %v\n%s", dir, err, stderr.Bytes())
	}
	var pkgs []listed
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listed
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			t.Fatalf("go list output: %v", err)
		}
		if p.Error != nil {
			t.Fatalf("go list %s: %s", p.ImportPath, p.Error.Err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs
}

// scanner type-checks the module packages from source and reads every
// other package from its export data.
type scanner struct {
	fset    *token.FileSet
	exports map[string]string         // import path -> export data file
	gc      types.Importer            // export-data importer, one cache for all
	checked map[string]*types.Package // module packages, from source
	module  map[string]bool           // import paths checked from source
	order   []string                  // module packages in check order
	used    map[types.Object]bool     // objects a non-test file references
	ifaces  []*types.Interface        // every interface with methods seen
}

func newScanner() *scanner {
	s := &scanner{
		fset:    token.NewFileSet(),
		exports: map[string]string{},
		checked: map[string]*types.Package{},
		module:  map[string]bool{},
		used:    map[types.Object]bool{},
	}
	s.gc = importer.ForCompiler(s.fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := s.exports[path]
		if !ok || f == "" {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	})
	s.addInterface(types.Universe.Lookup("error").Type())
	return s
}

func (s *scanner) Import(path string) (*types.Package, error) {
	if p, ok := s.checked[path]; ok {
		return p, nil
	}
	if s.module[path] {
		return nil, fmt.Errorf("module package %q imported before it was checked", path)
	}
	return s.gc.Import(path)
}

func (s *scanner) add(p listed) error {
	if p.Module == nil || p.Standard {
		s.exports[p.ImportPath] = p.Export
		pkg, err := s.gc.Import(p.ImportPath)
		if err != nil {
			return err
		}
		s.addScope(pkg.Scope())
		return nil
	}
	if _, done := s.checked[p.ImportPath]; done {
		return nil
	}
	s.module[p.ImportPath] = true
	var files []*ast.File
	for _, name := range p.GoFiles {
		f, err := parser.ParseFile(s.fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Uses:  map[*ast.Ident]types.Object{},
		Types: map[ast.Expr]types.TypeAndValue{},
	}
	conf := types.Config{Importer: s}
	pkg, err := conf.Check(p.ImportPath, s.fset, files, info)
	if err != nil {
		return fmt.Errorf("type-check %s: %w", p.ImportPath, err)
	}
	s.checked[p.ImportPath] = pkg
	s.order = append(s.order, p.ImportPath)
	for _, obj := range info.Uses {
		s.used[origin(obj)] = true
	}
	for _, tv := range info.Types {
		if tv.Type != nil {
			s.addInterface(tv.Type)
		}
	}
	s.addScope(pkg.Scope())
	return nil
}

// origin maps an instantiated generic function, method or field to the
// declaration it was instantiated from.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

func (s *scanner) addScope(scope *types.Scope) {
	for _, name := range scope.Names() {
		if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
			s.addInterface(tn.Type())
		}
	}
}

func (s *scanner) addInterface(t types.Type) {
	if n, ok := t.(*types.Named); ok && n.TypeParams().Len() > 0 {
		return
	}
	it, ok := t.Underlying().(*types.Interface)
	if !ok || it.NumMethods() == 0 || !it.IsMethodSet() {
		return
	}
	s.ifaces = append(s.ifaces, it)
}

// satisfies reports whether method m of named type recv is declared by an
// interface that recv (or a pointer to it) implements.
func (s *scanner) satisfies(recv *types.Named, m *types.Func) bool {
	if recv.TypeParams().Len() > 0 {
		return false
	}
	ptr := types.NewPointer(recv)
	for _, it := range s.ifaces {
		obj, _, _ := types.LookupFieldOrMethod(it, false, nil, m.Name())
		if obj == nil {
			continue
		}
		if types.Implements(recv, it) || types.Implements(ptr, it) {
			return true
		}
	}
	return false
}

type finding struct{ key, pos string }

// report returns the unreferenced exported declarations the allowlist
// does not cover, and the allowlist keys that cover nothing.
func (s *scanner) report(root, modPath string) (unused []finding, stale []string) {
	hit := map[string]bool{}
	for _, path := range s.order {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, modPath), "/")
		if !scanned(rel) {
			continue
		}
		pkg := s.checked[path]
		flag := func(obj types.Object, key string) {
			if s.used[obj] {
				return
			}
			for _, k := range []string{rel + ".*", key} {
				if _, ok := allowlist[k]; ok {
					hit[k] = true
					return
				}
			}
			pos := s.fset.Position(obj.Pos())
			if r, err := filepath.Rel(root, pos.Filename); err == nil {
				pos.Filename = r
			}
			unused = append(unused, finding{key, pos.String()})
		}
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if obj.Exported() {
				flag(obj, rel+"."+name)
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				if !m.Exported() || s.used[m] || s.satisfies(named, m) {
					continue
				}
				flag(m, rel+"."+name+"."+m.Name())
			}
		}
	}
	for k := range allowlist {
		if !hit[k] {
			stale = append(stale, k)
		}
	}
	sort.Strings(stale)
	sort.Slice(unused, func(i, j int) bool { return unused[i].key < unused[j].key })
	return unused, stale
}
