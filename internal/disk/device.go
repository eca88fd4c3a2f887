package disk

import (
	"io/fs"
	"os"
)

// Device is the file system under a process log and its root: every
// file operation of internal/wal and of AtomicWriteFile goes through
// one, so a test can fault any of them. It is not charged to a Model:
// the log charges its flush writes and forced syncs itself.
type Device interface {
	// Create makes path an empty file open for reading and writing.
	Create(path string) (File, error)
	// Open opens an existing file for reading and writing.
	Open(path string) (File, error)
	ReadDir(dir string) ([]fs.DirEntry, error)
	ReadFile(path string) ([]byte, error)
	Remove(path string) error
	Rename(from, to string) error
	// SyncDir makes dir's entries durable: a created or renamed file
	// can vanish with an unsynced directory entry (fsync(2)).
	SyncDir(dir string) error
	MkdirAll(dir string) error
}

// File is an open file of a Device. *os.File satisfies it.
type File interface {
	ReadAt(p []byte, off int64) (int, error)
	WriteAt(p []byte, off int64) (int, error)
	Stat() (fs.FileInfo, error)
	Truncate(size int64) error
	Sync() error
	Close() error
}

// HostDevice is the host's file system: each method is the os call of
// its name.
type HostDevice struct{}

func (HostDevice) Create(path string) (File, error) {
	return file(os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644))
}
func (HostDevice) Open(path string) (File, error)            { return file(os.OpenFile(path, os.O_RDWR, 0)) }
func (HostDevice) ReadDir(dir string) ([]fs.DirEntry, error) { return os.ReadDir(dir) }
func (HostDevice) ReadFile(path string) ([]byte, error)      { return os.ReadFile(path) }
func (HostDevice) Remove(path string) error                  { return os.Remove(path) }
func (HostDevice) Rename(from, to string) error              { return os.Rename(from, to) }
func (HostDevice) MkdirAll(dir string) error                 { return os.MkdirAll(dir, 0o755) }

func (HostDevice) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// file keeps a nil *os.File out of the File interface.
func file(f *os.File, err error) (File, error) {
	if err != nil {
		return nil, err
	}
	return f, nil
}
