package core

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/ids"
	"repro/internal/msg"
	"repro/internal/wal"
)

func TestDumpLogRendersAllRecordTypes(t *testing.T) {
	u := newTestUniverse(t)
	cfg := testConfig()
	cfg.LogMode = LogBaseline // baseline writes every record type
	_, pa := startProc(t, u, "evo1", "cli", cfg)
	_, pb := startProc(t, u, "evo2", "srv", cfg)
	hc, err := pb.Create("Counter", &Counter{})
	if err != nil {
		t.Fatal(err)
	}
	hr, err := pa.Create("Relay", &Relay{Server: NewRef(hc.URI())})
	if err != nil {
		t.Fatal(err)
	}
	ref := u.ExternalRef(hr.URI())
	callInt(t, ref, "Forward", 1)
	if err := hr.SaveState(); err != nil {
		t.Fatal(err)
	}
	if err := pa.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	callInt(t, ref, "Forward", 1) // force covers the checkpoint
	pa.Close()
	pb.Close()

	// The directory on its own, as a copy made for inspection is: the
	// mark travels in its root.
	dir := filepath.Join(t.TempDir(), "copied")
	copyDir(t, pa.LogDir(), dir)
	var buf bytes.Buffer
	if err := DumpLog(&buf, dir); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"creation", "incoming", "outgoing", "outgoing-reply",
		"reply-content", "ctx-state", "begin-ckpt", "ckpt-ctx-table",
		"ckpt-last-call", "end-ckpt",
		"Relay", "Forward", "context table",
		// The format: what the frame adds to a payload, the chain link
		// of the second call's record, the head the checkpoint kept for
		// the context, and how far the log was stable when it was
		// published.
		"B+7 ", " prev=lsn:", " head=lsn:", "stable watermark lsn:",
		// The root's mark, and the records it lets recovery pass over.
		"well-known checkpoint mark: lsn:", " ckpt'd",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("dump missing %q\n%s", want, out)
		}
	}
	// A message record carries no URI: the incoming line names its
	// target from the context's creation record, and the outgoing line
	// names the method and the call's sequence number.
	for _, want := range []string{
		string(hr.URI()) + ".Forward from external\n",
		"-> Add seq=1\n", "-> Add seq=2\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("dump missing %q\n%s", want, out)
		}
	}
	// A root that no longer checks out says so, and every record is one
	// a restart would scan.
	root, err := os.ReadFile(filepath.Join(dir, "root"))
	if err != nil {
		t.Fatal(err)
	}
	root[len(root)-2] ^= 0xFF
	if err := os.WriteFile(filepath.Join(dir, "root"), root, 0o644); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := DumpLog(&buf, dir); err != nil {
		t.Fatal(err)
	}
	if out := buf.String(); !strings.Contains(out, "well-known checkpoint mark: lost") || !strings.Contains(out, "stable watermark none") || strings.Contains(out, "ckpt'd") {
		t.Errorf("dump of a damaged root:\n%s", out)
	}
	if testing.Verbose() {
		t.Log("\n" + out)
	}
}

func TestDumpLogOptimizedShowsShortRecords(t *testing.T) {
	u := newTestUniverse(t)
	_, p := startProc(t, u, "evo1", "srv", testConfig())
	h, err := p.Create("Counter", &Counter{})
	if err != nil {
		t.Fatal(err)
	}
	ref := u.ExternalRef(h.URI())
	callInt(t, ref, "Add", 1)
	p.Close()

	var buf bytes.Buffer
	if err := DumpLog(&buf, p.LogDir()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "short record") {
		t.Errorf("optimized external reply should dump as a short record:\n%s", buf.String())
	}
}

// TestDumpLogReadsTheLogOnce: the dump's scan is the log's tail check,
// so a log no checkpoint ever marked — whose whole segment is unchecked
// tail — is read once, not checked and then scanned, and the LSN range
// on the summary line is what that scan found.
func TestDumpLogReadsTheLogOnce(t *testing.T) {
	const block = 16 << 10 // wal's read-ahead unit
	img, _ := counterImage(t, 4, 500, 0, 0)
	logDir := filepath.Join(img.dir, "evo1", "srv.log")
	segs, err := filepath.Glob(filepath.Join(logDir, "*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("segments %v, %v", segs, err)
	}
	var logBytes int64
	for _, seg := range segs {
		fi, err := os.Stat(seg)
		if err != nil {
			t.Fatal(err)
		}
		logBytes += fi.Size() - 16 // the segment header
	}
	if logBytes < 4*block {
		t.Fatalf("a %d-byte log: too small to tell one pass from two", logBytes)
	}
	var buf bytes.Buffer
	if err := DumpLog(&buf, logDir); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	i := strings.Index(out, "\nsummary: ")
	if i < 0 {
		t.Fatalf("no summary line:\n%s", out)
	}
	summary, _, _ := strings.Cut(out[i+1:], "\n")
	var reads, bytesRead int64
	if _, err := fmt.Sscanf(summary[strings.Index(summary, "; read with "):], "; read with %d device reads (%d bytes)", &reads, &bytesRead); err != nil {
		t.Fatalf("summary %q: %v", summary, err)
	}
	if max := logBytes + block*int64(len(segs)); bytesRead < logBytes || bytesRead > max {
		t.Errorf("dumping a %d-byte log read %d bytes in %d reads, want at least the log and at most %d", logBytes, bytesRead, reads, max)
	}
	if want := fmt.Sprintf(" in LSNs %v..%v,", ids.LSN(16), ids.LSN(16+logBytes)); !strings.Contains(summary, want) {
		t.Errorf("summary %q does not give the range%s", summary, want)
	}
}

// TestDumpIncomingOfTrimmedContext: an incoming record whose context's
// creation and state records are gone from the log (trimmed) names the
// context by number where the URI would be.
func TestDumpIncomingOfTrimmedContext(t *testing.T) {
	rec := framed(recIncoming, encodeRec(t, &incomingRec{Ctx: 7, Call: msg.Call{Method: "Add"}}))
	var buf bytes.Buffer
	if err := dumpPayload(&buf, rec, map[ids.CompID]ids.URI{}); err != nil {
		t.Fatal(err)
	}
	if got, want := buf.String(), "ctx=7 ctx=7.Add from external"; got != want {
		t.Errorf("dump line %q, want %q", got, want)
	}
}

// TestDumpLogMissingDir: the offline readers — the dump and the trace
// timelines — open a log that is there: a path that holds none, missing
// or an empty directory, fails and is left as it was.
func TestDumpLogMissingDir(t *testing.T) {
	base := t.TempDir()
	empty := filepath.Join(base, "empty.log")
	if err := os.Mkdir(empty, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, dir := range []string{filepath.Join(base, "nothere", "typo.log"), empty} {
		var buf bytes.Buffer
		if err := DumpLog(&buf, dir); err == nil {
			t.Errorf("DumpLog(%s) dumped a log that is not there:\n%s", dir, buf.String())
		}
		if _, err := TraceTimelines([]string{dir}, nil); err == nil {
			t.Errorf("TraceTimelines(%s) read a log that is not there", dir)
		}
	}
	if ents, _ := os.ReadDir(base); len(ents) != 1 {
		t.Errorf("%d entries in %s, want only the empty directory", len(ents), base)
	}
	if ents, _ := os.ReadDir(empty); len(ents) != 0 {
		t.Errorf("the readers created %d files in an empty directory", len(ents))
	}
}

// TestDumpLogCountsUnknownKinds: a record kind the runtime does not
// write has no rec.* counter; the summary line counts it instead.
func TestDumpLogCountsUnknownKinds(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "odd.log")
	log, err := wal.OpenSet(dir, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	payload := wal.EncodeFunc(func(dst []byte) ([]byte, error) { return append(dst, 1, 2, 3), nil })
	for _, kind := range []wal.RecordType{200, 201} {
		if _, err := log.AppendInto(1, kind, payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := DumpLog(&buf, dir); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "\nsummary: 2 records (2 of unknown kind) in LSNs") || !strings.Contains(out, "unknown record type 201") {
		t.Errorf("dump of a log holding two records of unknown kind:\n%s", out)
	}
}
