package disk

import "path/filepath"

// AtomicWriteFile makes data the durable content of path on dev — the
// one way this repository replaces a small file (a log's root, the
// recovery service's table): write path+".tmp", fsync it, rename it over
// path, fsync the directory so the rename itself survives a crash. A
// crash leaves the old content or the new, and at most one inert .tmp,
// which the next write truncates. Callers serialize writes to one path.
func AtomicWriteFile(dev Device, path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := dev.Create(tmp)
	if err != nil {
		return err
	}
	_, err = f.WriteAt(data, 0)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = dev.Rename(tmp, path)
	}
	if err != nil {
		dev.Remove(tmp)
		return err
	}
	return dev.SyncDir(filepath.Dir(path))
}
