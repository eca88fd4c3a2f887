// Fixture for the lockorder analyzer's device rung. The declared
// hierarchy (see TestLocksyncFixture) is, outermost first:
//
//	ctx.mu, device, store.mu
//
// device is the pseudo-class a device sync or a sleep acquires: only
// ctx.mu may be held across one. The cases are syncs and sleeps under
// a held mutex, the release-around-the-sync pattern, and the *Locked
// naming convention.
package device

import (
	"sync"
	"time"

	"repro/internal/disk"
)

type ctx struct{ mu sync.Mutex }

type store struct {
	mu sync.Mutex
	f  disk.File
}

func (s *store) badHeld() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.f.Sync() // want `device I/O at .* while holding .*store\.mu \(rank 2, below device at rank 1\) in .*badHeld \(via call to \Q(repro/internal/disk.File).Sync\E\)`
}

// badHeldToo syncs under the same mutex as badHeld: a second site of
// the same class pair is a second diagnostic, not hidden by the first.
func (s *store) badHeldToo() error {
	s.mu.Lock()
	err := s.f.Sync() // want `device I/O at .* while holding .*store\.mu .* in .*badHeldToo`
	s.mu.Unlock()
	return err
}

func (s *store) badSleep() {
	s.mu.Lock()
	time.Sleep(time.Millisecond) // want `device I/O at .* while holding .*store\.mu .* in .*badSleep \(via call to time\.Sleep\)`
	s.mu.Unlock()
}

// badHelper syncs one call away: the helper's device acquisition
// reaches the caller over the call graph.
func (s *store) badHelper() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return flush(s.f) // want `device I/O at .* while holding .*store\.mu .* in .*badHelper \(via call to .*device\.flush\)`
}

// flushLocked follows the *Locked convention: entered with the mutex
// held, so the sync is flagged even without a visible Lock.
func (s *store) flushLocked() error {
	return s.f.Sync() // want `device I/O at .* while holding .*store\.mu .* in .*flushLocked`
}

// syncLocked releases the mutex around the device sync — the pattern
// (*wal.Log).syncLocked establishes — so nothing is flagged, here or
// at its caller.
func (s *store) syncLocked() error {
	s.mu.Unlock()
	err := s.f.Sync()
	s.mu.Lock()
	return err
}

func (s *store) releasesAround() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.syncLocked()
}

func (s *store) goodReleased() error {
	s.mu.Lock()
	f := s.f
	s.mu.Unlock()
	return f.Sync()
}

// syncUnderOuter holds ctx.mu, the one class ranked above device (the
// repository's context mutex, which serializes whole handler runs,
// forces included).
func syncUnderOuter(c *ctx, f disk.File) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return f.Sync()
}

// unguarded code may sync freely.
func flush(f disk.File) error {
	return f.Sync()
}
