package emu

import "fmt"

// StoreBytes pokes a memory region by virtual address before a run,
// marking the pages it writes dirty as a store would.
func (m *Machine) StoreBytes(addr int64, data []byte) error {
	off := addr - m.P.DataBase
	if off < 0 || off+int64(len(data)) > int64(len(m.Mem)) {
		return fmt.Errorf("emu: write of %d bytes at %#x out of bounds", len(data), addr)
	}
	copy(m.Mem[off:], data)
	if len(data) > 0 {
		markDirty(m.img.dirty, off, int64(len(data)))
	}
	return nil
}

// SetBudget overrides the recorder's byte budget (<= 0 keeps the default),
// so tests can overflow a capture without recording DefaultTraceBudget
// bytes.
func (r *TraceRecorder) SetBudget(bytes int64) {
	if bytes > 0 {
		r.budget = bytes
	}
}
