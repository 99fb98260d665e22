package difftest

import (
	"encoding/binary"
	"fmt"
	"testing"

	"opgate/internal/prog"
	"opgate/internal/progen"
)

// FuzzDiffExec decodes a generator tuple from raw fuzz bytes, generates
// the program and asserts the execution-equivalence invariant (Run ==
// Step == Replay, no panics, no traps) and the rewrite path premise
// (CheckRewrites). The generator is total over valid
// tuples, so any error is a finding. Input layout:
//
//	data[0]      generator selector (mod NumFamilies+2): a behavioral
//	             family, or NumFamilies = phase composite,
//	             NumFamilies+1 = width-flip
//	data[1]      bit 0: size class (small/medium); bit 7: ref variant
//	data[2:10]   little-endian generator seed (for composites the seed
//	             also derives the phase list; for flip, the period)
//
// Seed corpus: one entry per family plus phase and flip entries under
// testdata/fuzz/FuzzDiffExec, regenerable with
// `go test -run TestFuzzCorpusSeeds -regen-corpus`.
func FuzzDiffExec(f *testing.F) {
	for _, entry := range fuzzCorpusSeeds() {
		f.Add(entry)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 10 {
			t.Skip("need 10 input bytes")
		}
		sel := int(data[0]) % (progen.NumFamilies + 2)
		class := progen.Class(int(data[1] & 1)) // small or medium: bounds per-input cost
		ref := data[1]&0x80 != 0
		seed := binary.LittleEndian.Uint64(data[2:10])
		var p *prog.Program
		var err error
		var label string
		switch sel {
		case progen.NumFamilies:
			fams := phaseListFromSeed(seed)
			label = "phase/" + progen.PhaseLabel(fams)
			p, _, err = progen.GeneratePhased(fams, seed, class, ref)
		case progen.NumFamilies + 1:
			period := 1 + int(seed>>56)%8 // small periods flip most often
			label = fmt.Sprintf("flip/%d", period)
			p, err = progen.GenerateFlip(period, seed, class, ref)
		default:
			fam := progen.Family(sel)
			label = fam.String()
			p, err = progen.Generate(fam, seed, class, ref)
		}
		if err != nil {
			t.Fatalf("generator failed on valid tuple %s/%v/%d: %v", label, class, seed, err)
		}
		if err = CheckExec(p); err == nil {
			err = CheckRewrites(p)
		}
		if err != nil {
			t.Fatalf("%s/%v/%d ref=%v: %v", label, class, seed, ref, err)
		}
	})
}

// phaseListFromSeed derives a 2-3 element phase family list from the
// seed's high bytes (disjoint from the bytes GenerateFlip's period
// derivation reads is not required — each selector interprets the seed
// its own way).
func phaseListFromSeed(seed uint64) []progen.Family {
	n := 2 + int(seed>>62)%2
	fams := make([]progen.Family, n)
	for i := range fams {
		// Reduce unsigned: int(seed) is negative when bit 63 is set.
		fams[i] = progen.Family((seed >> (8 * i)) % uint64(progen.NumFamilies))
	}
	return fams
}

// fuzzCorpusSeeds returns the deterministic seed inputs: one per family
// plus two phase composites and two flip periods, mixing classes and
// variants.
func fuzzCorpusSeeds() [][]byte {
	var out [][]byte
	for _, fam := range progen.Families() {
		e := make([]byte, 10)
		e[0] = byte(fam)
		e[1] = byte(fam) & 1
		if fam%3 == 0 {
			e[1] |= 0x80
		}
		binary.LittleEndian.PutUint64(e[2:], uint64(fam)*1337+1)
		out = append(out, e)
	}
	for i := 0; i < 2; i++ {
		e := make([]byte, 10)
		e[0] = byte(progen.NumFamilies)
		e[1] = byte(i)
		binary.LittleEndian.PutUint64(e[2:], uint64(i)<<62|uint64(i*0x0102)<<8|31)
		out = append(out, e)
		e = make([]byte, 10)
		e[0] = byte(progen.NumFamilies + 1)
		e[1] = byte(i) | 0x80
		binary.LittleEndian.PutUint64(e[2:], uint64(i*3)<<56|77)
		out = append(out, e)
	}
	return out
}
