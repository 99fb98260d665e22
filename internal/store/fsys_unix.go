//go:build unix

package store

import (
	"fmt"
	"os"
	"syscall"
)

// mapFile maps the named file read-only and shared: its view is the page
// cache itself, so a warm read costs neither a heap blob nor a copy.
func mapFile(name string) ([]byte, func(), error) {
	f, err := os.Open(name)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close() // the mapping outlives the descriptor
	info, err := f.Stat()
	if err != nil {
		return nil, nil, err
	}
	size := info.Size()
	if size == 0 {
		// mmap refuses a zero length; an empty file has nothing to map.
		return []byte{}, func() {}, nil
	}
	if int64(int(size)) != size {
		return nil, nil, fmt.Errorf("store: map %s: %d bytes exceed the address space", name, size)
	}
	data, err := syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return nil, nil, &os.PathError{Op: "mmap", Path: name, Err: err}
	}
	// Munmap fails only on a range that is not a live mapping, which
	// the single release of a fresh mapping never passes.
	return data, func() { _ = syscall.Munmap(data) }, nil
}
