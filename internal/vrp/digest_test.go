package vrp

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"opgate/internal/interval"
	"opgate/internal/prog"
	"opgate/internal/progen"
	"opgate/internal/workload"
)

var updateDigest = flag.Bool("update", false, "rewrite testdata/results.digest")

// namedOptions is an analysis configuration with a stable name.
type namedOptions struct {
	name string
	opts Options
}

// digestOptions are the configurations the suite runs VRP with: the two
// modes plus the ablations' one-off configurations.
var digestOptions = append([]namedOptions{
	{"useful", Options{Mode: Useful}},
	{"conventional", Options{Mode: Conventional}},
}, ablationOptions...)

// testProgram is a named program for the table-driven analysis checks;
// build is deferred so a failing case names itself.
type testProgram struct {
	name  string
	build func() (*prog.Program, error)
}

// digestResult hashes every per-instruction table of r.
func digestResult(r *Result) string {
	h := sha256.New()
	var buf [8]byte
	word := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	iv := func(x interval.Interval) {
		if x.IsEmpty() {
			word(0)
			return
		}
		word(1)
		word(x.Lo)
		word(x.Hi)
	}
	word(int64(len(r.Prog.Ins)))
	for i := range r.Prog.Ins {
		iv(r.ResRange[i])
		iv(r.RaRange[i])
		iv(r.RbRange[i])
		word(int64(r.Demand[i]))
		word(int64(r.Width[i]))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// digestPrograms lists the programs the digest covers: every kernel in
// both input classes, plus a few generated, phased and flip programs.
func digestPrograms() []testProgram {
	var out []testProgram
	for _, w := range workload.All() {
		for _, class := range []workload.InputClass{workload.Train, workload.Ref} {
			out = append(out, testProgram{fmt.Sprintf("%s/%s", w.Name, class),
				func() (*prog.Program, error) { return w.Build(class) }})
		}
	}
	for _, f := range progen.Families() {
		out = append(out, testProgram{fmt.Sprintf("progen-%s-s3-small", f),
			func() (*prog.Program, error) { return progen.Generate(f, 3, progen.Small, true) }})
	}
	out = append(out,
		testProgram{"flip-4-s2-small", func() (*prog.Program, error) {
			return progen.GenerateFlip(4, 2, progen.Small, true)
		}},
		testProgram{"phased-s2-small", func() (*prog.Program, error) {
			p, _, err := progen.GeneratePhased(progen.Families()[:3], 2, progen.Small, true)
			return p, err
		}},
	)
	return out
}

// TestResultDigest pins the analysis output bit for bit: the range,
// demand and width tables of every digest program under every suite
// option set must hash to the recorded values. Any change to the
// analysis that moves a single range shows up here by name.
func TestResultDigest(t *testing.T) {
	var got []string
	for _, pc := range digestPrograms() {
		p, err := pc.build()
		if err != nil {
			t.Fatalf("%s: %v", pc.name, err)
		}
		for _, o := range digestOptions {
			r, err := Analyze(p, o.opts)
			if err != nil {
				t.Fatalf("%s %s: %v", pc.name, o.name, err)
			}
			got = append(got, fmt.Sprintf("%s %s %s", pc.name, o.name, digestResult(r)))
		}
	}

	path := filepath.Join("testdata", "results.digest")
	if *updateDigest {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	if len(got) != len(want) {
		t.Fatalf("%d digests, recorded %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("digest mismatch:\n got  %s\n want %s", got[i], want[i])
		}
	}
}
