package wal

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"

	"repro/internal/ids"
)

// TestWALModelProperty drives random operation sequences — append,
// force, flush, trim, crash (Discard+reopen), clean close+reopen —
// against an in-memory model of what must survive:
//
//   - after a clean close, every appended record survives;
//   - after a crash, exactly the records up to the last force survive
//     (flushed-but-unsynced data is deliberately dropped);
//   - after a trim at LSN k, every surviving record at LSN >= k is
//     still readable and intact;
//   - a scan through a read-ahead block of any size returns the records
//     that per-record Read returns.
func TestWALModelProperty(t *testing.T) {
	type modelRec struct {
		lsn     ids.LSN
		typ     RecordType
		payload []byte
	}
	for trial := 0; trial < 15; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		dir := filepath.Join(t.TempDir(), "model.log")
		l, err := Open(dir, nil)
		if err != nil {
			t.Fatal(err)
		}
		l.SetSegmentBytes(int64(256 + rng.Intn(2048)))

		var all []modelRec // every record ever appended (uncrashed)
		var stable int     // records covered by the last force
		trimmedTo := ids.LSN(0)

		reopen := func(crash bool) {
			if crash {
				if err := l.Discard(); err != nil {
					t.Fatalf("trial %d: discard: %v", trial, err)
				}
				all = all[:stable]
			} else {
				if err := l.Close(); err != nil {
					t.Fatalf("trial %d: close: %v", trial, err)
				}
			}
			l2, err := Open(dir, nil)
			if err != nil {
				t.Fatalf("trial %d: reopen: %v", trial, err)
			}
			l = l2
			l.SetSegmentBytes(int64(256 + rng.Intn(2048)))
			// Reopening makes whatever is in the files stable.
			stable = len(all)
		}

		steps := 60 + rng.Intn(120)
		for s := 0; s < steps; s++ {
			switch op := rng.Intn(10); {
			case op < 5: // append
				payload := bytes.Repeat([]byte{byte(s)}, rng.Intn(300))
				typ := RecordType(1 + rng.Intn(10))
				lsn, err := l.Append(typ, payload)
				if err != nil {
					t.Fatalf("trial %d step %d: append: %v", trial, s, err)
				}
				all = append(all, modelRec{lsn: lsn, typ: typ, payload: payload})
			case op < 7: // force
				if _, err := l.SyncAll(); err != nil {
					t.Fatal(err)
				}
				stable = len(all)
			case op == 7: // flush (no stability)
				if err := l.Flush(); err != nil {
					t.Fatal(err)
				}
			case op == 8: // trim to a random surviving record
				if len(all) > 0 {
					k := all[rng.Intn(len(all))].lsn
					if _, err := l.SyncAll(); err != nil { // trim follows checkpoints in practice
						t.Fatal(err)
					}
					stable = len(all)
					if err := l.TrimHead(k); err != nil {
						t.Fatal(err)
					}
					if k > trimmedTo {
						trimmedTo = k
					}
				}
			case op == 9: // crash or clean restart
				reopen(rng.Intn(2) == 0)
			}
		}
		reopen(rng.Intn(2) == 0) // final restart, then audit

		// Audit: every surviving record at or past the trim point must
		// read back intact; a full scan returns them in order.
		start := l.Start()
		want := make(map[ids.LSN]modelRec)
		for _, r := range all {
			if r.lsn >= start {
				want[r.lsn] = r
			}
			if r.lsn >= trimmedTo && r.lsn < start {
				t.Errorf("trial %d: record %v (>= trim %v) was lost (start %v)",
					trial, r.lsn, trimmedTo, start)
			}
		}
		for lsn, r := range want {
			rec, err := l.Read(lsn)
			if err != nil {
				t.Errorf("trial %d: Read(%v): %v", trial, lsn, err)
				continue
			}
			if rec.Type != r.typ || !bytes.Equal(rec.Payload, r.payload) {
				t.Errorf("trial %d: record %v corrupted", trial, lsn)
			}
		}
		seen := 0
		prev := ids.NilLSN
		if err := l.Scan(ids.NilLSN, func(rec Record) error {
			if rec.LSN <= prev {
				return fmt.Errorf("scan not monotonic at %v", rec.LSN)
			}
			prev = rec.LSN
			if _, ok := want[rec.LSN]; ok {
				seen++
			}
			return nil
		}); err != nil {
			t.Fatalf("trial %d: scan: %v", trial, err)
		}
		if seen != len(want) {
			t.Errorf("trial %d: scan saw %d of %d surviving records", trial, seen, len(want))
		}
		block := rng.Intn(2048)
		c, err := l.ScanFrom(ids.NilLSN)
		if err != nil {
			t.Fatal(err)
		}
		c.r.block = block
		blockSeen := 0
		for {
			rec, ok, err := c.Next()
			if err != nil {
				t.Fatalf("trial %d: block-%d scan: %v", trial, block, err)
			}
			if !ok {
				break
			}
			one, err := l.Read(rec.LSN)
			if err != nil || one.Type != rec.Type || !bytes.Equal(one.Payload, rec.Payload) {
				t.Errorf("trial %d: block-%d scan and Read disagree at %v (%v)", trial, block, rec.LSN, err)
			}
			blockSeen++
		}
		if blockSeen != seen {
			t.Errorf("trial %d: block-%d scan saw %d records, Scan saw %d", trial, block, blockSeen, seen)
		}
		l.Close()
	}
}
