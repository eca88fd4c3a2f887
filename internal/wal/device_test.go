package wal

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/disk"
	"repro/internal/ids"
)

// errFault is what a faulted device operation returns.
var errFault = errors.New("injected device fault")

// faultDev is the host device with the powers a test needs: it fails
// the n-th next call of one named operation, once, and it counts the
// files it holds open and the fsyncs it is asked for. A faulted read or
// write moves half its bytes first, as a torn transfer does. Device
// operations are named by their method, file operations
// "File.<method>".
//
// What a crash (Log.Discard) keeps is the device's variant. The host
// keeps every byte written: a process death. With powerCut, the close
// of a file that was written cuts it back to its length at its last
// sync, before the file is opened again: the power failed right then.
type faultDev struct {
	disk.HostDevice
	powerCut bool
	noSync   bool // the host fsync is skipped: for tests about files, not durability
	mu       sync.Mutex
	op       string // the operation to fail ("": none)
	n        int    // calls of op until the one that fails
	open     int    // files open
	syncs    int    // fsyncs asked of it, of files and directories
}

// variants are the two crashes a device can leave, named as subtests
// name them.
var variants = []struct {
	name     string
	powerCut bool
}{{"process-death", false}, {"power-cut", true}}

// fail makes the n-th next call of op fail.
func (d *faultDev) fail(op string, n int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.op, d.n = op, n
}

func (d *faultDev) hit(op string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if op != d.op {
		return nil
	}
	if d.n--; d.n > 0 {
		return nil
	}
	d.op = ""
	return fmt.Errorf("%s: %w", op, errFault)
}

func (d *faultDev) openFiles() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.open
}

func (d *faultDev) file(f disk.File, err error) (disk.File, error) {
	if err != nil {
		return nil, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.open++
	return &faultFile{File: f, d: d, synced: fi.Size()}, nil
}

// hostSync counts an fsync asked of the device and issues it on the
// host, unless noSync skips it.
func (d *faultDev) hostSync(sync func() error) error {
	d.mu.Lock()
	d.syncs++
	skip := d.noSync
	d.mu.Unlock()
	if skip {
		return nil
	}
	return sync()
}

func (d *faultDev) syncsAsked() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.syncs
}

func (d *faultDev) Create(path string) (disk.File, error) {
	if err := d.hit("Create"); err != nil {
		return nil, err
	}
	return d.file(d.HostDevice.Create(path))
}

func (d *faultDev) Open(path string) (disk.File, error) {
	if err := d.hit("Open"); err != nil {
		return nil, err
	}
	return d.file(d.HostDevice.Open(path))
}

func (d *faultDev) ReadDir(dir string) ([]fs.DirEntry, error) {
	if err := d.hit("ReadDir"); err != nil {
		return nil, err
	}
	return d.HostDevice.ReadDir(dir)
}

func (d *faultDev) ReadFile(path string) ([]byte, error) {
	if err := d.hit("ReadFile"); err != nil {
		return nil, err
	}
	return d.HostDevice.ReadFile(path)
}

func (d *faultDev) Remove(path string) error {
	if err := d.hit("Remove"); err != nil {
		return err
	}
	return d.HostDevice.Remove(path)
}

func (d *faultDev) Rename(from, to string) error {
	if err := d.hit("Rename"); err != nil {
		return err
	}
	return d.HostDevice.Rename(from, to)
}

func (d *faultDev) SyncDir(dir string) error {
	if err := d.hit("SyncDir"); err != nil {
		return err
	}
	return d.hostSync(func() error { return d.HostDevice.SyncDir(dir) })
}

func (d *faultDev) MkdirAll(dir string) error {
	if err := d.hit("MkdirAll"); err != nil {
		return err
	}
	return d.HostDevice.MkdirAll(dir)
}

type faultFile struct {
	disk.File
	d      *faultDev
	closed bool
	wrote  bool  // written since it was opened
	synced int64 // its length at its last sync (else at its open)
}

func (f *faultFile) ReadAt(p []byte, off int64) (int, error) {
	if err := f.d.hit("File.ReadAt"); err != nil {
		n, _ := f.File.ReadAt(p[:len(p)/2], off)
		return n, err
	}
	return f.File.ReadAt(p, off)
}

func (f *faultFile) WriteAt(p []byte, off int64) (int, error) {
	f.wrote = true
	if err := f.d.hit("File.WriteAt"); err != nil {
		n, _ := f.File.WriteAt(p[:len(p)/2], off)
		return n, err
	}
	return f.File.WriteAt(p, off)
}

func (f *faultFile) Truncate(size int64) error {
	if err := f.d.hit("File.Truncate"); err != nil {
		return err
	}
	return f.File.Truncate(size)
}

func (f *faultFile) Sync() error {
	if err := f.d.hit("File.Sync"); err != nil {
		return err
	}
	fi, err := f.File.Stat()
	if err == nil {
		err = f.d.hostSync(f.File.Sync)
	}
	if err == nil {
		f.synced = fi.Size()
	}
	return err
}

func (f *faultFile) Close() error {
	f.d.mu.Lock()
	first := !f.closed
	if first {
		f.closed = true
		f.d.open--
	}
	f.d.mu.Unlock()
	if fi, err := f.File.Stat(); first && f.d.powerCut && f.wrote && err == nil && fi.Size() > f.synced {
		if err := f.File.Truncate(f.synced); err != nil {
			return err
		}
	}
	return f.File.Close()
}

// openDev opens a fresh log in a temporary directory on d.
func openDev(t *testing.T, d *faultDev) (*Log, string) {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "proc.log")
	l, err := OpenOn(d, dir, nil, 1)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	return l, dir
}

// logged is a record a test appended and what the log must keep of it.
type logged struct {
	lsn     ids.LSN
	payload []byte
}

// appendForced appends n records of size bytes, forcing each.
func appendForced(t *testing.T, l *Log, n, size int) []logged {
	t.Helper()
	var out []logged
	for i := 0; i < n; i++ {
		p := bytes.Repeat([]byte{byte('a' + i%26)}, size)
		lsn, err := l.Append(1, p)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := l.SyncAll(); err != nil {
			t.Fatal(err)
		}
		out = append(out, logged{lsn, p})
	}
	return out
}

// reopen is the open that follows a fault, on the host device: it must
// succeed and hold every record in recs.
func reopen(t *testing.T, dir string, recs []logged) *Log {
	t.Helper()
	l, err := OpenSet(dir, nil, 1)
	if err != nil {
		t.Fatalf("the open that follows: %v", err)
	}
	t.Cleanup(func() { l.Close() })
	for _, r := range recs {
		if got, err := l.Read(r.lsn); err != nil || !bytes.Equal(got.Payload, r.payload) {
			t.Errorf("after the reopen, record %v reads %q, %v; want %q", r.lsn, got.Payload, err, r.payload)
		}
	}
	return l
}

// rollsAgain checks a reopened log appends, forces and rolls, and that
// the next open holds what it forced. Its first record is small: after a
// roll that stopped the log it would still fit the sealed segment, so it
// lands past the start of any file the roll left unless the open made
// that file the active segment.
func rollsAgain(t *testing.T, l *Log, dir string, recs []logged) {
	t.Helper()
	l.SetSegmentBytes(1024)
	before := l.Stats().Segments
	recs = append(recs, appendForced(t, l, 1, 10)...)
	for l.Stats().Segments == before {
		recs = append(recs, appendForced(t, l, 1, 200)...)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	reopen(t, dir, recs)
}

// stopped checks that a log failed with first refuses appends and forces
// with that same error.
func stopped(t *testing.T, l *Log, first error) {
	t.Helper()
	if _, err := l.Append(1, []byte("small")); err != first {
		t.Errorf("Append after the fault = %v, want the first error %v again", err, first)
	}
	if _, err := l.SyncAll(); err != first {
		t.Errorf("SyncAll after the fault = %v, want the first error %v again", err, first)
	}
}

// running checks that a log a fault did not stop appends and forces.
func running(t *testing.T, l *Log) logged {
	t.Helper()
	return appendForced(t, l, 1, 30)[0]
}

// TestDeviceFailStop is the fail-stop table: one row per device
// operation the log issues, each failed once where the log issues it.
// A row states the outcome where the fault struck and checks the open
// that follows, on a healthy device: it opens and holds every forced
// record. The outcomes:
//
//   - open: the open fails, and leaves no file open;
//   - a roll (the seal's sync, the new segment's create, header write,
//     header sync and directory sync), the flush write, the leader's
//     sync, the tail check's truncate and sync: the log stops, every
//     later append and force returning the first error; the reopened
//     log takes records and rolls again;
//   - a read of a sealed segment (its open, its read), plain or under
//     Reader.Hold: that read fails and the log runs on; a reader that
//     held nothing reads again, never from a half-filled block;
//   - TrimHead's remove: the trim fails and the log runs on;
//   - each step of the root write: Publish fails, the mark does not
//     move, the log runs on, and the open that follows reads the old
//     root, or the new one once the rename happened.
//
// One row is an image, not a fault: a power cut right after a roll's
// create can leave the new segment's size on the disk and not its data,
// a header of zeros. The open creates that segment again, unless the
// stable watermark is above its start: then it is damage, and the open
// fails naming it.
func TestDeviceFailStop(t *testing.T) {
	atOpen := func(t *testing.T, op string, n int) {
		d := &faultDev{}
		dir := filepath.Join(t.TempDir(), "proc.log")
		d.fail(op, n)
		if l, err := OpenOn(d, dir, nil, 1); !errors.Is(err, errFault) {
			if err == nil {
				l.Close()
			}
			t.Fatalf("open = %v, want the fault", err)
		}
		if got := d.openFiles(); got != 0 {
			t.Errorf("the failed open left %d files open", got)
		}
		rollsAgain(t, reopen(t, dir, nil), dir, nil)
	}
	atReopen := func(t *testing.T, op string, n int) {
		l, dir := openDev(t, &faultDev{})
		l.SetSegmentBytes(1024)
		recs := appendForced(t, l, 12, 200) // three segments
		if err := l.Publish(recs[4].lsn); err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		d := &faultDev{}
		d.fail(op, n)
		if l, err := OpenOn(d, dir, nil, 1); !errors.Is(err, errFault) {
			if err == nil {
				l.Close()
			}
			t.Fatalf("open = %v, want the fault", err)
		}
		if got := d.openFiles(); got != 0 {
			t.Errorf("the failed open left %d files open", got)
		}
		l = reopen(t, dir, recs)
		if l.Mark() != recs[4].lsn {
			t.Errorf("mark %v after the reopen, want %v", l.Mark(), recs[4].lsn)
		}
	}
	// atRoll fails op while an append rolls: 200-byte records fill
	// 1,024-byte segments four at a time, each forced, so the fifth rolls.
	// A 10-byte record would still fit the sealed segment.
	atRoll := func(t *testing.T, op string, n int) {
		d := &faultDev{}
		l, dir := openDev(t, d)
		l.SetSegmentBytes(1024)
		recs := appendForced(t, l, 4, 200)
		d.fail(op, n)
		_, err := l.Append(1, bytes.Repeat([]byte("r"), 200))
		if !errors.Is(err, errFault) {
			t.Fatalf("the rolling append = %v, want the fault", err)
		}
		stopped(t, l, err)
		l.Close()
		rollsAgain(t, reopen(t, dir, recs), dir, recs)
	}
	// atForce fails op under a force of a record appended after a forced
	// one; the power cut that follows keeps the forced one alone.
	atForce := func(t *testing.T, op string, n int) {
		d := &faultDev{powerCut: true}
		l, dir := openDev(t, d)
		recs := appendForced(t, l, 1, 50)
		mark := l.SyncedLSN()
		lost, err := l.Append(1, []byte("never forced"))
		if err != nil {
			t.Fatal(err)
		}
		d.fail(op, n)
		_, err = l.SyncTo(lost)
		if !errors.Is(err, errFault) {
			t.Fatalf("SyncTo = %v, want the fault", err)
		}
		stopped(t, l, err)
		if got := l.SyncedLSN(); got != mark {
			t.Errorf("SyncedLSN %v after the fault, want %v", got, mark)
		}
		l.Discard()
		l = reopen(t, dir, recs)
		if _, err := l.Read(lost); err == nil {
			t.Error("the record whose force failed survived the crash")
		}
		rollsAgain(t, l, dir, recs)
	}
	// atTailCheck opens a log whose last record is torn and fails op
	// while the first append's tail check cuts it.
	atTailCheck := func(t *testing.T, op string, n int) {
		l, dir := openDev(t, &faultDev{})
		recs := appendForced(t, l, 3, 50)
		torn := appendForced(t, l, 1, 50)[0]
		path := activeSegPath(t, l)
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(path, segHeaderSize+int64(torn.lsn-firstLSN)+20); err != nil {
			t.Fatal(err)
		}
		d := &faultDev{}
		l, err := OpenOn(d, dir, nil, 1)
		if err != nil {
			t.Fatal(err)
		}
		d.fail(op, n)
		_, err = l.Append(1, []byte("behind the tail"))
		if !errors.Is(err, errFault) {
			t.Fatalf("the append behind the tail check = %v, want the fault", err)
		}
		stopped(t, l, err)
		l.Close()
		l = reopen(t, dir, recs)
		if _, err := l.Read(torn.lsn); err == nil {
			t.Error("the torn record reads back")
		}
		rollsAgain(t, l, dir, recs)
	}
	// atRead fails op while a record in a sealed segment is read: a plain
	// read, or a read after Reader.Hold's read failed the same way.
	atRead := func(held bool) func(t *testing.T, op string, n int) {
		return func(t *testing.T, op string, n int) {
			d := &faultDev{}
			l, dir := openDev(t, d)
			l.SetSegmentBytes(256)
			recs := appendForced(t, l, 20, 40)
			if l.findSegment(recs[1].lsn) == l.active() {
				t.Fatal("the record is not in a sealed segment")
			}
			r := l.NewReader()
			if held {
				d.fail(op, n)
				r.Hold(recs[0].lsn, recs[2].lsn)
			}
			d.fail(op, n)
			var err error
			if held {
				_, err = r.ReadAt(recs[1].lsn)
			} else {
				_, err = l.Read(recs[1].lsn)
			}
			if !errors.Is(err, errFault) {
				t.Fatalf("the read = %v, want the fault", err)
			}
			if got, err := r.ReadAt(recs[1].lsn); err != nil || !bytes.Equal(got.Payload, recs[1].payload) {
				t.Errorf("the read again = %q, %v; want %q", got.Payload, err, recs[1].payload)
			}
			recs = append(recs, running(t, l))
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			reopen(t, dir, recs)
		}
	}
	atTrim := func(t *testing.T, op string, n int) {
		d := &faultDev{}
		l, dir := openDev(t, d)
		l.SetSegmentBytes(256)
		recs := appendForced(t, l, 20, 40)
		start := l.Start()
		d.fail(op, n)
		if err := l.TrimHead(recs[15].lsn); !errors.Is(err, errFault) {
			t.Fatalf("TrimHead = %v, want the fault", err)
		}
		if l.Start() != start {
			t.Errorf("the log starts at %v after the failed trim, want %v", l.Start(), start)
		}
		recs = append(recs, running(t, l))
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		reopen(t, dir, recs)
	}
	atPublish := func(t *testing.T, op string, n int) {
		d := &faultDev{}
		l, dir := openDev(t, d)
		recs := appendForced(t, l, 2, 50)
		if err := l.Publish(recs[0].lsn); err != nil {
			t.Fatal(err)
		}
		d.fail(op, n)
		if err := l.Publish(recs[1].lsn); !errors.Is(err, errFault) {
			t.Fatalf("Publish = %v, want the fault", err)
		}
		if l.Mark() != recs[0].lsn {
			t.Errorf("mark %v after the failed publication, want %v", l.Mark(), recs[0].lsn)
		}
		recs = append(recs, running(t, l))
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := os.Stat(filepath.Join(dir, rootName+".tmp")); !errors.Is(err, fs.ErrNotExist) {
			t.Errorf("the failed publication left its temp file: %v", err)
		}
		want := recs[0].lsn // the old root
		if op == "SyncDir" {
			want = recs[1].lsn // the rename happened: the new one
		}
		if l := reopen(t, dir, recs); l.Mark() != want {
			t.Errorf("the open that follows reads mark %v, want %v", l.Mark(), want)
		}
	}
	atZeroedHeader := func(t *testing.T, _ string, _ int) {
		l, dir := openDev(t, &faultDev{})
		l.SetSegmentBytes(1024)
		recs := appendForced(t, l, 4, 200) // 16 + 4 × 208 bytes: the next record rolls to lsn:848
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		zeroed := filepath.Join(dir, segName(848))
		if err := os.WriteFile(zeroed, make([]byte, segHeaderSize), 0o644); err != nil {
			t.Fatal(err)
		}
		l = reopen(t, dir, recs)
		recs = append(recs, running(t, l))
		if recs[len(recs)-1].lsn != 848 {
			t.Errorf("the first record after the reopen is at %v, want lsn:848, the recreated segment's start", recs[len(recs)-1].lsn)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		l = reopen(t, dir, recs)
		if err := l.Publish(recs[len(recs)-1].lsn); err != nil { // stable: past lsn:848
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		f, err := os.OpenFile(zeroed, os.O_RDWR, 0)
		if err != nil {
			t.Fatal(err)
		}
		_, err = f.WriteAt(make([]byte, segHeaderSize), 0)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			t.Fatal(err)
		}
		if l, err := OpenSet(dir, nil, 1); err == nil || !strings.Contains(err.Error(), zeroed) {
			if err == nil {
				l.Close()
			}
			t.Errorf("the open over a zeroed header below the watermark = %v, want an error naming %s", err, zeroed)
		}
	}

	for _, row := range []struct {
		name string
		run  func(t *testing.T, op string, n int)
		op   string
		n    int
	}{
		{"open/mkdir", atOpen, "MkdirAll", 1},
		{"open/read root", atOpen, "ReadFile", 1},
		{"open/read dir", atOpen, "ReadDir", 1},
		{"open/segment create", atOpen, "Create", 1},
		{"open/header write", atOpen, "File.WriteAt", 1},
		{"open/header sync", atOpen, "File.Sync", 1},
		{"open/directory sync", atOpen, "SyncDir", 1},
		{"reopen/read root", atReopen, "ReadFile", 1},
		{"reopen/read dir", atReopen, "ReadDir", 1},
		{"reopen/active segment", atReopen, "Open", 3},
		{"roll/seal sync", atRoll, "File.Sync", 1},
		{"roll/segment create", atRoll, "Create", 1},
		{"roll/header write", atRoll, "File.WriteAt", 1},
		{"roll/header sync", atRoll, "File.Sync", 2},
		{"roll/directory sync", atRoll, "SyncDir", 1},
		{"force/flush write", atForce, "File.WriteAt", 1},
		{"force/leader's sync", atForce, "File.Sync", 1},
		{"tail check/truncate", atTailCheck, "File.Truncate", 1},
		{"tail check/sync", atTailCheck, "File.Sync", 1},
		{"read/sealed open", atRead(false), "Open", 1},
		{"read/sealed read", atRead(false), "File.ReadAt", 1},
		{"read/sealed open under Hold", atRead(true), "Open", 1},
		{"read/sealed read under Hold", atRead(true), "File.ReadAt", 1},
		{"trim/remove", atTrim, "Remove", 1},
		{"root/create", atPublish, "Create", 1},
		{"root/write", atPublish, "File.WriteAt", 1},
		{"root/sync", atPublish, "File.Sync", 1},
		{"root/rename", atPublish, "Rename", 1},
		{"root/directory sync", atPublish, "SyncDir", 1},
		{"roll/header zeroed", atZeroedHeader, "", 0},
	} {
		t.Run(row.name, func(t *testing.T) { row.run(t, row.op, row.n) })
	}
}
