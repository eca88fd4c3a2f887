package core

import (
	"errors"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/disk"
)

// crashDev is the host device under a test universe's logs. What a
// crash keeps is its variant: a process death keeps every byte written;
// a power cut — the close of a file holding bytes past its last sync
// cuts it back to that sync's length — keeps what a sync covered, as if
// the power failed right then, before the file is opened again. Every
// core test universe runs on one, a power cut unless the test names its
// variant.
//
// It has two more powers. A blocked root refuses the rename that
// publishes a log's root, so a checkpoint's publication fails. And
// failSync fails a segment's fsync without reaching the disk: the force
// it served wrote its records and did not make them durable, and the
// process fails stop — the one place a process death and a power cut
// leave different logs.
type crashDev struct {
	disk.HostDevice
	powerCut bool
	blocked  atomic.Bool            // the root's rename fails
	failIn   atomic.Pointer[string] // the log whose segment sync fails
	failAt   atomic.Int64           // its segment syncs until the one that fails (0: none)
	unsynced atomic.Int64           // bytes above a segment file's last sync at its close
}

// variant is one of the two crashes a crashDev leaves.
type variant struct {
	name     string
	powerCut bool
}

// variants name the crash suites' subtests.
var variants = []variant{{"process-death", false}, {"power-cut", true}}

func (v variant) dev() *crashDev { return &crashDev{powerCut: v.powerCut} }

// forVariants returns a test that runs row once per crash variant, as a
// subtest named for it, on a device of its own.
func forVariants(row func(t *testing.T, dev *crashDev)) func(*testing.T) {
	return func(t *testing.T) {
		for _, v := range variants {
			t.Run(v.name, func(t *testing.T) { row(t, v.dev()) })
		}
	}
}

// forModes builds a crash image per variant with build, then recovers
// each under each mode with what build returned: subtests
// <mode>/<variant>.
func forModes(t *testing.T, build func(t *testing.T, dev *crashDev) func(t *testing.T, mode RecoveryMode)) {
	rows := make([]func(*testing.T, RecoveryMode), len(variants))
	for i, v := range variants {
		rows[i] = build(t, v.dev())
	}
	for _, mode := range []RecoveryMode{RecoveryEager, RecoveryLazy} {
		t.Run(mode.String(), func(t *testing.T) {
			for i, v := range variants {
				t.Run(v.name, func(t *testing.T) { rows[i](t, mode) })
			}
		})
	}
}

// powerCut is the device of a test universe that names no variant.
func powerCut() *crashDev { return &crashDev{powerCut: true} }

var errDevice = errors.New("crashDev: refused")

// blockRoot makes the publication of p's log root fail (p's universe
// runs on a crashDev) and returns the function that lets it through
// again.
func blockRoot(t *testing.T, p *Process) func() {
	t.Helper()
	d := p.u.cfg.dev.(*crashDev)
	d.blocked.Store(true)
	return func() { d.blocked.Store(false) }
}

// failSync makes the n-th next sync of a segment file of the log of
// process proc fail without reaching the disk.
func (d *crashDev) failSync(proc string, n int) {
	log := proc + ".log"
	d.failIn.Store(&log)
	d.failAt.Store(int64(n))
}

// fails reports whether this sync, of a segment of log, is the one that
// fails.
func (d *crashDev) fails(log string) bool {
	in := d.failIn.Load()
	return in != nil && *in == log && d.failAt.Load() > 0 && d.failAt.Add(-1) == 0
}

func (d *crashDev) Rename(from, to string) error {
	if d.blocked.Load() && filepath.Base(to) == "root" {
		return errDevice
	}
	return d.HostDevice.Rename(from, to)
}

func (d *crashDev) Create(path string) (disk.File, error) { return d.file(path, d.HostDevice.Create) }
func (d *crashDev) Open(path string) (disk.File, error)   { return d.file(path, d.HostDevice.Open) }

func (d *crashDev) file(path string, open func(string) (disk.File, error)) (disk.File, error) {
	f, err := open(path)
	if err != nil {
		return nil, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	cf := &crashFile{File: f, d: d}
	if strings.HasSuffix(path, ".seg") {
		cf.log = filepath.Base(filepath.Dir(path))
	}
	cf.size.Store(fi.Size())
	cf.synced.Store(fi.Size())
	return cf, nil
}

// crashFile keeps its file's length itself, so that a sync on the
// log's force path costs no allocation a test of that path would count.
type crashFile struct {
	disk.File
	d      *crashDev
	log    string       // a segment's log directory ("": not a segment)
	size   atomic.Int64 // its length
	synced atomic.Int64 // its length at its last sync (else at its open)
}

func (f *crashFile) WriteAt(p []byte, off int64) (int, error) {
	n, err := f.File.WriteAt(p, off)
	for end := off + int64(n); ; {
		if size := f.size.Load(); end <= size || f.size.CompareAndSwap(size, end) {
			return n, err
		}
	}
}

func (f *crashFile) Truncate(size int64) error {
	err := f.File.Truncate(size)
	if err == nil {
		f.size.Store(size)
	}
	return err
}

func (f *crashFile) Sync() error {
	if f.log != "" && f.d.fails(f.log) {
		return errDevice
	}
	size := f.size.Load()
	err := f.File.Sync()
	if err == nil {
		f.synced.Store(size)
	}
	return err
}

func (f *crashFile) Close() error {
	if size, synced := f.size.Load(), f.synced.Load(); size > synced {
		if f.log != "" {
			f.d.unsynced.Add(size - synced)
		}
		if f.d.powerCut {
			if err := f.File.Truncate(synced); err != nil {
				return err
			}
		}
	}
	return f.File.Close()
}

// TestCrashDevVariants: a force whose device sync fails crashes the
// process, and the record it wrote is on the log after a process death,
// past the stable watermark — the restart adopts it — and not after a
// power cut. Either way the caller is not told the call failed: it
// retries into the restart, and the call runs once.
func TestCrashDevVariants(t *testing.T) {
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			d := v.dev()
			u, err := NewUniverse(UniverseConfig{Dir: t.TempDir(), dev: d})
			if err != nil {
				t.Fatal(err)
			}
			defer u.Shutdown()
			m, p := startProc(t, u, "evo1", "srv", testConfig())
			h, err := p.Create("C", &Counter{})
			if err != nil {
				t.Fatal(err)
			}
			ref := u.ExternalRef(h.URI()).WithoutRetry()
			callInt(t, ref, "Add", 1)
			d.failSync("srv", 1)
			if _, err := ref.Call("Add", 2); !errors.Is(err, ErrUnavailable) || !p.Crashed() {
				t.Fatalf("Add(2) = %v with the process crashed %v, want it unavailable: the force failed", err, p.Crashed())
			}
			if d.unsynced.Load() == 0 {
				t.Fatal("the force wrote nothing before its sync")
			}
			p, err = m.StartProcess("srv", testConfig())
			if err != nil {
				t.Fatal(err)
			}
			rs, _ := p.LastRecovery()
			want := map[bool]int{false: 3, true: 1}[v.powerCut]
			if got := callInt(t, ref, "Get"); got != want {
				t.Errorf("C recovered as %d after a %s, want %d (%d calls replayed)", got, v.name, want, rs.CallsReplayed)
			}
		})
	}
}
