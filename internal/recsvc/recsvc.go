// Package recsvc implements the per-machine recovery service of paper
// Section 2.4: "All processes that host persistent components register
// at start time with the Phoenix/App recovery service running on their
// machine. The recovery service monitors the abnormal exits of the
// registered processes and restarts those processes. It keeps the
// information of registered processes in a table and force writes
// updates to the table to its log to make the table persistent."
//
// The service has two responsibilities the runtime depends on:
//
//  1. Stable identity: it assigns each process name a logical process
//     ID that survives failures, so the method-call IDs a restarted
//     process generates match those on its log (Section 2.3). The
//     name→ID table is force-written to a file on every update.
//  2. Restart: when notified of an abnormal exit it invokes a restart
//     callback and tells the restarted process it is recovering, not
//     booting for the first time. Any delay before the restart is the
//     callback's, on whatever clock its runtime keeps.
package recsvc

import (
	"bufio"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"repro/internal/disk"
	"repro/internal/ids"
)

// RestartFunc restarts a crashed process by name. It is supplied by the
// machine runtime (which knows how to build a Process); the service
// only decides when to call it.
type RestartFunc func(procName string) error

// Service is one machine's recovery service.
type Service struct {
	tablePath string

	mu      sync.Mutex
	table   map[string]ids.ProcID
	nextID  ids.ProcID
	restart RestartFunc
	// monitoring is on only while a restart func is installed.
	stopped bool
}

// Open loads (or creates) the service's persistent process table in
// dir. The table survives machine restarts, keeping process IDs stable.
func Open(dir string) (*Service, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("recsvc: mkdir %s: %w", dir, err)
	}
	s := &Service{
		tablePath: filepath.Join(dir, "recsvc.tab"),
		table:     make(map[string]ids.ProcID),
		nextID:    1,
	}
	if err := s.load(); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *Service) load() error {
	f, err := os.Open(s.tablePath)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("recsvc: open table: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var name string
		var id uint32
		if _, err := fmt.Sscanf(line, "%s %d", &name, &id); err != nil {
			return fmt.Errorf("recsvc: bad table line %q: %w", line, err)
		}
		s.table[name] = ids.ProcID(id)
		if ids.ProcID(id) >= s.nextID {
			s.nextID = ids.ProcID(id) + 1
		}
	}
	return sc.Err()
}

// save force-writes the whole table (it is tiny) — the paper's "force
// writes updates to the table to its log".
func (s *Service) save() error {
	names := make([]string, 0, len(s.table))
	for n := range s.table {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		fmt.Fprintf(&b, "%s %d\n", n, s.table[n])
	}
	if err := disk.AtomicWriteFile(s.tablePath, []byte(b.String())); err != nil {
		return fmt.Errorf("recsvc: write table: %w", err)
	}
	return nil
}

// Register is called by a process at start (Section 4.1: "At process
// start, the recovery manager registers the process with the recovery
// service of the machine to obtain the virtual process ID"). It returns
// the process's stable logical ID and whether the process was already
// known — a restarted process learns it must recover.
func (s *Service) Register(procName string) (id ids.ProcID, existing bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if id, ok := s.table[procName]; ok {
		return id, true, nil
	}
	id = s.nextID
	s.nextID++
	s.table[procName] = id
	if err := s.save(); err != nil {
		delete(s.table, procName)
		s.nextID--
		return 0, false, err
	}
	return id, false, nil
}

// Registered reports whether a process name is in the table.
func (s *Service) Registered(procName string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.table[procName]
	return ok
}

// Processes lists registered process names, sorted.
func (s *Service) Processes() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	names := make([]string, 0, len(s.table))
	for n := range s.table {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// EnableAutoRestart installs a restart callback: subsequent
// NotifyCrash calls restart the named process.
func (s *Service) EnableAutoRestart(restart RestartFunc) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.restart = restart
	s.stopped = false
}

// DisableAutoRestart stops monitoring.
func (s *Service) DisableAutoRestart() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.restart = nil
	s.stopped = true
}

// NotifyCrash reports an abnormal process exit. If auto-restart is
// enabled the process is restarted asynchronously; the error from the
// restart function is delivered on the returned channel (nil channel
// when monitoring is off).
func (s *Service) NotifyCrash(procName string) <-chan error {
	s.mu.Lock()
	restart := s.restart
	s.mu.Unlock()
	if restart == nil {
		return nil
	}
	done := make(chan error, 1)
	go func() { done <- restart(procName) }()
	return done
}
