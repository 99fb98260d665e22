//go:build !unix

package store

import "os"

// mapFile is a plain read where the platform has no mmap: the view is a
// heap copy and release has nothing to free.
func mapFile(name string) ([]byte, func(), error) {
	data, err := os.ReadFile(name)
	if err != nil {
		return nil, nil, err
	}
	return data, func() {}, nil
}
