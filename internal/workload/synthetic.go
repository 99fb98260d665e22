package workload

import (
	"fmt"
	"strconv"
	"strings"

	"opgate/internal/prog"
	"opgate/internal/progen"
)

// Synthetic workloads are progen-generated programs registered as
// first-class benchmarks: they resolve through ByName like the eight
// kernels, so every experiment driver, traversal and figure matrix runs
// over them unmodified. The Train input class maps to the generator's
// train variant and Ref to the (longer, reseeded) ref variant, preserving
// the profiling/evaluation methodology end-to-end.

// synPrefix marks synthetic workload names: "syn:<family>/<class>/<seed>".
const synPrefix = "syn:"

// SyntheticName returns the registry name of a generated workload,
// e.g. "syn:pointer/small/42".
func SyntheticName(f progen.Family, seed uint64, c progen.Class) string {
	return fmt.Sprintf("%s%s/%s/%d", synPrefix, f, c, seed)
}

// Synthetic constructs the (family, seed, class) generated workload. The
// name round-trips through ByName.
func Synthetic(f progen.Family, seed uint64, c progen.Class) *Workload {
	return &Workload{
		Name: SyntheticName(f, seed, c),
		Build: func(class InputClass) (*prog.Program, error) {
			return progen.Generate(f, seed, c, class == Ref)
		},
	}
}

// SyntheticPhasedName returns the registry name of a phase-structured
// composite, e.g. "syn:phase/narrow-wide/small/7".
func SyntheticPhasedName(families []progen.Family, seed uint64, c progen.Class) string {
	return fmt.Sprintf("%sphase/%s/%s/%d", synPrefix, progen.PhaseLabel(families), c, seed)
}

// SyntheticPhased constructs the phase-structured composite workload: the
// listed family bodies stitched into one program, executing in sequence.
// The name round-trips through ByName.
func SyntheticPhased(families []progen.Family, seed uint64, c progen.Class) *Workload {
	return &Workload{
		Name: SyntheticPhasedName(families, seed, c),
		Build: func(class InputClass) (*prog.Program, error) {
			p, _, err := progen.GeneratePhased(families, seed, c, class == Ref)
			return p, err
		},
	}
}

// SyntheticFlipName returns the registry name of an adversarial
// width-flip workload, e.g. "syn:flip/4/small/7".
func SyntheticFlipName(period int, seed uint64, c progen.Class) string {
	return fmt.Sprintf("%sflip/%d/%s/%d", synPrefix, period, c, seed)
}

// SyntheticFlip constructs the adversarial width-flip workload: one
// program toggling between narrow and wide steady states every period
// blocks. The name round-trips through ByName.
func SyntheticFlip(period int, seed uint64, c progen.Class) *Workload {
	return &Workload{
		Name: SyntheticFlipName(period, seed, c),
		Build: func(class InputClass) (*prog.Program, error) {
			return progen.GenerateFlip(period, seed, c, class == Ref)
		},
	}
}

// IsSynthetic reports whether name denotes a generated workload.
func IsSynthetic(name string) bool { return strings.HasPrefix(name, synPrefix) }

// parseSynthetic resolves a "syn:..." registry name: the single-family
// "syn:<family>/<class>/<seed>" form, the phase composite
// "syn:phase/<f1>-<f2>/<class>/<seed>" form, or the width-flip
// "syn:flip/<period>/<class>/<seed>" form. ("phase" and "flip" are not
// family names, so the forms cannot collide.)
func parseSynthetic(name string) (*Workload, error) {
	spec := strings.TrimPrefix(name, synPrefix)
	parts := strings.Split(spec, "/")
	switch {
	case len(parts) == 4 && parts[0] == "phase":
		fams, err := progen.ParsePhaseLabel(parts[1])
		if err != nil {
			return nil, fmt.Errorf("workload: %q: %w", name, err)
		}
		c, seed, err := parseClassSeed(name, parts[2], parts[3])
		if err != nil {
			return nil, err
		}
		return SyntheticPhased(fams, seed, c), nil
	case len(parts) == 4 && parts[0] == "flip":
		period, err := strconv.Atoi(parts[1])
		if err != nil || period < 1 || period > progen.MaxFlipPeriod {
			return nil, fmt.Errorf("workload: %q: bad flip period %q (want 1..%d)", name, parts[1], progen.MaxFlipPeriod)
		}
		c, seed, err := parseClassSeed(name, parts[2], parts[3])
		if err != nil {
			return nil, err
		}
		return SyntheticFlip(period, seed, c), nil
	case len(parts) == 3 && parts[0] != "phase" && parts[0] != "flip":
		// A 3-part phase/flip name is a missing segment, not an unknown
		// family — let it fall through to the malformed error.
		f, err := progen.ParseFamily(parts[0])
		if err != nil {
			return nil, fmt.Errorf("workload: %q: %w", name, err)
		}
		c, seed, err := parseClassSeed(name, parts[1], parts[2])
		if err != nil {
			return nil, err
		}
		return Synthetic(f, seed, c), nil
	}
	return nil, fmt.Errorf("workload: malformed synthetic name %q (want %sfamily/class/seed, %sphase/f1-f2/class/seed, or %sflip/period/class/seed)", name, synPrefix, synPrefix, synPrefix)
}

// parseClassSeed parses the trailing <class>/<seed> pair every synthetic
// form shares.
func parseClassSeed(name, classPart, seedPart string) (progen.Class, uint64, error) {
	c, err := progen.ParseClass(classPart)
	if err != nil {
		return 0, 0, fmt.Errorf("workload: %q: %w", name, err)
	}
	seed, err := strconv.ParseUint(seedPart, 10, 64)
	if err != nil {
		return 0, 0, fmt.Errorf("workload: %q: bad seed %q", name, seedPart)
	}
	return c, seed, nil
}

// CuratedSeedsPerFamily is how many fixed seeds per family the curated
// synthetic set carries.
const CuratedSeedsPerFamily = 2

// CuratedSynthetics returns the named curated set of generated workloads:
// a fixed grid of seeds per behavioral family at the Small size class,
// spanning the dynamic-width spectrum from narrow to wide. It is the
// suite the -synthetic ogbench mode and the differential CI runs extend
// the eight kernels with.
func CuratedSynthetics() []*Workload {
	var ws []*Workload
	for _, f := range progen.Families() {
		for seed := uint64(1); seed <= CuratedSeedsPerFamily; seed++ {
			ws = append(ws, Synthetic(f, seed, progen.Small))
		}
	}
	return ws
}
