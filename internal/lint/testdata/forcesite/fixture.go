// Fixture for the forcesite analyzer: calls into the wal append/force
// entry points from blessed and rogue functions. The test's fixture
// allowlist blesses blessedAppend only.
package forcesite

import (
	"repro/internal/wal"
)

// blessedAppend is the fixture's accounting chokepoint (allowlisted).
func blessedAppend(l *wal.Log, payload []byte) error {
	lsn, err := l.Append(1, payload)
	if err != nil {
		return err
	}
	_, err = l.SyncTo(lsn)
	return err
}

func rogueAppend(l *wal.Log, payload []byte) {
	l.Append(2, payload) // want `\Q(*repro/internal/wal.Log).Append\E called from .*rogueAppend, which is not a blessed force/append site`
}

func rogueForces(l *wal.Log) error {
	if _, err := l.SyncAll(); err != nil { // want `\Q(*repro/internal/wal.Log).SyncAll\E called from`
		return err
	}
	_, err := l.SyncTo(9) // want `\Q(*repro/internal/wal.Log).SyncTo\E called from`
	return err
}

func rogueAppendInto(l *wal.Log, enc wal.PayloadEncoder) error {
	_, err := l.AppendInto(3, 1, enc) // want `\Q(*repro/internal/wal.Log).AppendInto\E called from .*rogueAppendInto`
	return err
}

// reads are not guarded: only the append/force entry points are.
func reader(l *wal.Log) (wal.Record, error) {
	return l.Read(16)
}
