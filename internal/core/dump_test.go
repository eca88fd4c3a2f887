package core

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
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
