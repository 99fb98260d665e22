package vrs

// Transforms reads the transform counter: transform calls so far in this
// process.
func Transforms() int64 { return transforms.Load() }

// ProfitableFromScratch counts the points a from-scratch §3.4 filter
// finds profitable at threshold: the length of the ranked prefix Select
// transforms, found without the ranking.
func ProfitableFromScratch(pf *Profile, threshold float64) int {
	opts := Options{Threshold: threshold}
	opts.defaults()
	n := 0
	for _, pt := range evaluate(pf, opts) {
		if pt.Benefit > 0 {
			n++
		}
	}
	return n
}
