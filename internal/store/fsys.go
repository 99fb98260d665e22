package store

import (
	"fmt"
	"io"
	"os"
	"runtime/debug"
	"time"
)

// FS abstracts every filesystem operation the store performs, so tests
// can substitute a fault-injecting implementation (FaultFS) and prove the
// degradation contract: any disk misbehavior — full disks, torn renames,
// partial writes, undeletable files — must read as a cache miss served by
// re-emulation, never as an error surfaced to the pipeline or a corrupt
// object mistaken for a good one.
type FS interface {
	MkdirAll(path string, perm os.FileMode) error
	ReadDir(name string) ([]os.DirEntry, error)
	ReadFile(name string) ([]byte, error)
	// Map returns a read-only view of the named file's bytes and the
	// function that releases it; the view must not be touched after
	// release. On unix the view is a shared mapping of the file, not a
	// copy: a file removed or replaced by rename while mapped keeps its
	// mapped contents, but one truncated in place faults on access past
	// its new end (SIGBUS), so callers read a view under guardFaults.
	// Elsewhere it is a ReadFile copy.
	Map(name string) (data []byte, release func(), err error)
	Stat(name string) (os.FileInfo, error)
	Chtimes(name string, atime, mtime time.Time) error
	Remove(name string) error
	Rename(oldpath, newpath string) error
	CreateTemp(dir, pattern string) (File, error)
	// OpenFile is the append-path entry point (the job journal writes
	// through it); flag and perm carry os.OpenFile semantics.
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	// SyncDir fsyncs a directory: a rename is only durable across power
	// loss once the parent directory's entry for it has reached disk.
	SyncDir(name string) error
}

// guardFaults runs fn, which reads a Map view, and turns a memory fault
// raised on the way — the view's file was truncated in place under it —
// into an error, so a shrunken object reads as a defect rather than
// killing the process. Any other panic propagates.
func guardFaults(fn func() error) (err error) {
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	defer func() {
		if r := recover(); r != nil {
			if _, fault := r.(interface{ Addr() uintptr }); !fault {
				panic(r)
			}
			err = fmt.Errorf("store: object changed under its mapping: %v", r)
		}
	}()
	return fn()
}

// File is the slice of *os.File the store's staged writes and the job
// journal's appends need.
type File interface {
	io.Writer
	Name() string
	Sync() error
	Close() error
}

// OSFS returns the production filesystem FS — the seam's default, for
// callers outside the package (the job journal) that need it explicitly.
func OSFS() FS { return osFS{} }

// osFS is the production FS: the real filesystem, verbatim.
type osFS struct{}

func (osFS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }
func (osFS) ReadDir(name string) ([]os.DirEntry, error)   { return os.ReadDir(name) }
func (osFS) ReadFile(name string) ([]byte, error)         { return os.ReadFile(name) }
func (osFS) Map(name string) ([]byte, func(), error)      { return mapFile(name) }
func (osFS) Stat(name string) (os.FileInfo, error)        { return os.Stat(name) }
func (osFS) Chtimes(name string, a, m time.Time) error    { return os.Chtimes(name, a, m) }
func (osFS) Remove(name string) error                     { return os.Remove(name) }
func (osFS) Rename(oldpath, newpath string) error         { return os.Rename(oldpath, newpath) }
func (osFS) CreateTemp(dir, pattern string) (File, error) { return os.CreateTemp(dir, pattern) }

func (osFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	return os.OpenFile(name, flag, perm)
}

func (osFS) SyncDir(name string) error {
	d, err := os.Open(name)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
