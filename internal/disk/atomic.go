package disk

import (
	"os"
	"path/filepath"
)

// AtomicWriteFile makes data the durable content of path — the one way
// this repository replaces a small file (a log's root, the
// recovery service's table): write path+".tmp", fsync it, rename it over
// path, fsync the directory so the rename itself survives a crash. A
// crash leaves the old content or the new, and at most one inert .tmp,
// which the next write truncates. Callers serialize writes to one path.
func AtomicWriteFile(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	d, err := os.Open(filepath.Dir(path))
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
