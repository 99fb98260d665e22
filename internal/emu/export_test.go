package emu

// SetBudget overrides the recorder's byte budget (<= 0 keeps the default),
// so tests can overflow a capture without recording DefaultTraceBudget
// bytes.
func (r *TraceRecorder) SetBudget(bytes int64) {
	if bytes > 0 {
		r.budget = bytes
	}
}
