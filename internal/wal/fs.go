package wal

import (
	"io"
	"os"
	"sort"
)

// FS abstracts the filesystem the log writes through. The default is the
// operating system (OSFS); the crash-injection harness substitutes a
// wrapper whose writes die after a configured number of bytes, which is
// how "kill the process at a random WAL offset" is simulated in-process.
type FS interface {
	// OpenFile opens (or creates) a log segment for writing and reading.
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	// ReadDir lists the file names (not paths) in dir, in any order.
	ReadDir(dir string) ([]string, error)
	// Remove deletes a file.
	Remove(name string) error
	// MkdirAll creates dir and any missing parents.
	MkdirAll(dir string, perm os.FileMode) error
}

// File is one log segment: created at full size, then written in place
// at increasing offsets, read back at recovery, and fsynced by the
// group-commit flusher.
type File interface {
	io.WriterAt
	io.ReaderAt
	io.Closer
	// Sync flushes written bytes to stable storage.
	Sync() error
	// Size returns the file's current length in bytes.
	Size() (int64, error)
}

// OSFS is the real filesystem.
type OSFS struct{}

func (OSFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return osFile{f}, nil
}

func (OSFS) ReadDir(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		if !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

func (OSFS) Remove(name string) error                    { return os.Remove(name) }
func (OSFS) MkdirAll(dir string, perm os.FileMode) error { return os.MkdirAll(dir, perm) }

type osFile struct{ *os.File }

func (f osFile) Size() (int64, error) {
	st, err := f.Stat()
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}
