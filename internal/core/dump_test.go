package core

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/ids"
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
	// marks travel in its root.
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
		"B+7 ", " prev=lsn:1:", " head=lsn:1:", "stable watermark lsn:1:",
		// The root's mark, and the records it lets recovery pass over.
		"well-known checkpoint marks: 1=lsn:1:", " ckpt'd",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("dump missing %q\n%s", want, out)
		}
	}
	// A root whose hint section no longer checks out says so, and every
	// record is one a restart would scan.
	root, err := os.ReadFile(filepath.Join(dir, "shards.meta"))
	if err != nil {
		t.Fatal(err)
	}
	root[len(root)-2] ^= 0xFF
	if err := os.WriteFile(filepath.Join(dir, "shards.meta"), root, 0o644); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := DumpLog(&buf, dir); err != nil {
		t.Fatal(err)
	}
	if out := buf.String(); !strings.Contains(out, "well-known checkpoint marks: lost") || !strings.Contains(out, "stable watermark none") || strings.Contains(out, "ckpt'd") {
		t.Errorf("dump of a root with a damaged hint section:\n%s", out)
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
	img, _ := counterImage(t, 4, 300, 0, 0)
	logDir := filepath.Join(img.dir, "evo1", "srv.log")
	segs, err := filepath.Glob(filepath.Join(logDir, "shard-*", "*.seg"))
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
	if want := fmt.Sprintf(" in LSNs %v..%v,", ids.StreamLSN(1, 16), ids.StreamLSN(1, 16+ids.LSN(logBytes))); !strings.Contains(summary, want) {
		t.Errorf("summary %q does not give the range%s", summary, want)
	}
}

func TestDumpLogMissingDir(t *testing.T) {
	var buf bytes.Buffer
	// A fresh (empty) directory dumps cleanly with no records.
	if err := DumpLog(&buf, t.TempDir()+"/fresh.log"); err != nil {
		t.Fatalf("empty log dump: %v", err)
	}
	if !strings.Contains(buf.String(), "LSNs") {
		t.Errorf("header missing: %s", buf.String())
	}
}
