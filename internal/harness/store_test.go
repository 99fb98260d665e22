package harness

import (
	"bytes"
	"context"
	"encoding/binary"
	"hash/crc64"
	"os"
	"path/filepath"
	"testing"

	"opgate/internal/store"
)

// storeSuite builds a quick suite (with one synthetic rider so generated
// workloads cross the persistence boundary too) bound to a store at dir.
func storeSuite(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func runAllWithStore(t *testing.T, st *store.Store) (*Suite, []byte) {
	t.Helper()
	s := NewSuite(true)
	s.Synthetics = []string{"syn:narrow/small/1"}
	s.Store = st
	reports, err := s.RunAll(context.Background(), 50)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := (TextRenderer{}).Render(&buf, reports); err != nil {
		t.Fatal(err)
	}
	return s, buf.Bytes()
}

// TestStoreWarmRunIsEmulationFree is the persistence tentpole: a second
// process (modeled by a fresh Suite over the same store root) regenerates
// every table and figure byte-identically while performing zero functional
// emulations — every trace is served from disk.
func TestStoreWarmRunIsEmulationFree(t *testing.T) {
	dir := t.TempDir()

	cold, coldOut := runAllWithStore(t, storeSuite(t, dir))
	if cold.Emulations() == 0 {
		t.Fatal("cold run performed no emulations — probe broken?")
	}
	coldStats := cold.Store.Stats()
	if coldStats.Hits != 0 || coldStats.Puts == 0 {
		t.Fatalf("cold run store traffic unexpected: %+v", coldStats)
	}

	warmStore := storeSuite(t, dir) // fresh handle: clean stats
	warm, warmOut := runAllWithStore(t, warmStore)
	if n := warm.Emulations(); n != 0 {
		t.Fatalf("warm run performed %d emulations, want 0", n)
	}
	st := warmStore.Stats()
	if st.Misses != 0 || st.Hits == 0 || st.Puts != 0 {
		t.Fatalf("warm run store traffic unexpected (want all hits): %+v", st)
	}
	if !bytes.Equal(coldOut, warmOut) {
		t.Fatal("warm-store reports are not byte-identical to the cold run")
	}
}

// TestStoreDamageFallsBackToEmulation: damaging stored objects between
// runs must cost only re-emulation, never correctness — the reports stay
// byte-identical.
func TestStoreDamageFallsBackToEmulation(t *testing.T) {
	dir := t.TempDir()
	_, coldOut := runAllWithStore(t, storeSuite(t, dir))

	// Flip a byte in every stored object.
	objects := filepath.Join(dir, "objects")
	entries, err := os.ReadDir(objects)
	if err != nil || len(entries) == 0 {
		t.Fatalf("no stored objects to damage (err %v)", err)
	}
	for _, e := range entries {
		path := filepath.Join(objects, e.Name())
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)/2] ^= 0x40
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	warm, warmOut := runAllWithStore(t, storeSuite(t, dir))
	if warm.Emulations() == 0 {
		t.Fatal("damaged store still served traces")
	}
	if !bytes.Equal(coldOut, warmOut) {
		t.Fatal("reports drifted after store damage — the store leaked into correctness")
	}
}

// v1Frame re-frames a stored trace object the way codec format version 1
// wrote it: the same header and columns under version 1 and a
// CRC-64/ECMA trailer.
func v1Frame(blob []byte) []byte {
	b := append([]byte{}, blob...)
	binary.LittleEndian.PutUint16(b[4:], 1)
	crc := crc64.Checksum(b[:len(b)-8], crc64.MakeTable(crc64.ECMA))
	binary.LittleEndian.PutUint64(b[len(b)-8:], crc)
	return b
}

// TestStoreV1ObjectIsReEmulatedAndRewritten: a trace object left behind
// by codec format version 1 is a miss. The run rejects it once,
// re-emulates that one trace, rewrites the object in the current format,
// and renders reports byte-identical to a cold run.
func TestStoreV1ObjectIsReEmulatedAndRewritten(t *testing.T) {
	dir := t.TempDir()
	fig3 := func(st *store.Store) (*Suite, []byte) {
		t.Helper()
		s := NewSuite(true)
		s.Store = st
		r, err := s.RunExperiment(context.Background(), "fig3", 50)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := (TextRenderer{}).Render(&buf, []*Report{r}); err != nil {
			t.Fatal(err)
		}
		return s, buf.Bytes()
	}
	_, coldOut := fig3(storeSuite(t, dir))

	objects := filepath.Join(dir, "objects")
	entries, err := os.ReadDir(objects)
	if err != nil {
		t.Fatal(err)
	}
	var path string
	var current []byte
	for _, e := range entries {
		p := filepath.Join(objects, e.Name())
		if data, err := os.ReadFile(p); err == nil && bytes.HasPrefix(data, []byte("OGTR")) {
			path, current = p, data
			break
		}
	}
	if path == "" {
		t.Fatal("cold run stored no trace object")
	}
	if err := os.WriteFile(path, v1Frame(current), 0o644); err != nil {
		t.Fatal(err)
	}

	st := storeSuite(t, dir)
	warm, warmOut := fig3(st)
	if got := st.Stats().Rejects; got != 1 {
		t.Fatalf("warm run rejected %d objects, want 1 (the v1 object)", got)
	}
	if n := warm.Emulations(); n != 1 {
		t.Fatalf("warm run performed %d emulations, want 1 (the v1 object's trace)", n)
	}
	rewritten, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("v1 object was not rewritten: %v", err)
	}
	if !bytes.Equal(rewritten, current) {
		t.Fatal("rewritten object differs from the cold run's current-format encoding")
	}
	if !bytes.Equal(coldOut, warmOut) {
		t.Fatal("reports drifted after a v1 object was re-emulated")
	}
}

// TestStoreServesEveryLabelOfAStoredBinary: the store addresses a trace
// by the binary's identity, not by the label that built it. A cold suite
// requests one label per distinct binary; a fresh suite over the same
// store then requests only the other labels and emulates nothing. Each
// label is asked for its role mode. The warm suite reads the trace of
// every binary it requests and, for a width-only rewrite, of the base
// binary whose timing pass it takes.
func TestStoreServesEveryLabelOfAStoredBinary(t *testing.T) {
	dir := t.TempDir()
	cold := NewSuite(true)
	cold.Store = storeSuite(t, dir)
	type group struct {
		name   string
		labels []string
	}
	var groups []group
	shared := 0
	for _, name := range cold.Names() {
		for _, labels := range labelGroups(t, cold, name, paperLabels()) {
			groups = append(groups, group{name, labels})
			if len(labels) > 1 {
				shared++
			}
			mode, err := roleMode(cold, name, labels[0])
			if err != nil {
				t.Fatal(err)
			}
			if _, err := cold.Sim(name, labels[0], mode); err != nil {
				t.Fatal(err)
			}
		}
	}
	if shared == 0 {
		t.Fatal("no two labels build one binary; the test cannot observe sharing")
	}
	if got, want := cold.Emulations(), int64(len(groups)); got != want {
		t.Fatalf("cold suite performed %d emulations, want %d (one per binary)", got, want)
	}

	st := storeSuite(t, dir)
	warm := NewSuite(true)
	warm.Store = st
	for _, g := range groups {
		for _, label := range g.labels[1:] {
			mode, err := roleMode(warm, g.name, label)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := warm.Sim(g.name, label, mode); err != nil {
				t.Fatal(err)
			}
		}
	}
	if n := warm.Emulations(); n != 0 {
		t.Errorf("labels sharing a stored binary performed %d emulations, want 0", n)
	}
	read := map[binKey]bool{}
	for _, g := range groups {
		if len(g.labels) == 1 {
			continue
		}
		b, err := warm.variantBinary(g.name, g.labels[1])
		if err != nil {
			t.Fatal(err)
		}
		read[b.key] = true
		if base, err := warm.variantBinary(g.name, "base"); err != nil {
			t.Fatal(err)
		} else if sameButWidths(base.p, b.p) {
			read[base.key] = true
		}
	}
	if stats := st.Stats(); stats.Misses != 0 || stats.Hits != int64(len(read)) {
		t.Errorf("warm store traffic %+v, want %d hits and no misses", stats, len(read))
	}
}
