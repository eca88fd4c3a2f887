// Fixture for the lockorder analyzer. The declared hierarchy (see
// TestLockOrderFixture) is, outermost first:
//
//	A.mu, B.mu, C.mu, E.mu, F.mu, G.ready
//
// D.mu is deliberately undeclared.
package lockorder

import "sync"

type A struct{ mu sync.Mutex }
type B struct{ mu sync.Mutex }
type C struct{ mu sync.Mutex }
type D struct{ mu sync.Mutex }
type E struct{ mu sync.Mutex }
type F struct{ mu sync.Mutex }
type G struct{ ready chan struct{} }

// goodNesting follows the declared order at every step: C before E,
// and the latch wait innermost.
func goodNesting(c *C, e *E, g *G) {
	c.mu.Lock()
	e.mu.Lock()
	<-g.ready
	e.mu.Unlock()
	c.mu.Unlock()
}

// cycleFwd and cycleBack together form an A<->B cycle: each direction
// is diagnosed, naming the reverse edge's acquire site.
func cycleFwd(a *A, b *B) {
	a.mu.Lock()
	b.mu.Lock() // want `completes a lock cycle: the reverse edge .*B\.mu -> .*A\.mu is taken at .*fixture\.go`
	b.mu.Unlock()
	a.mu.Unlock()
}

func cycleBack(a *A, b *B) {
	b.mu.Lock()
	a.mu.Lock() // want `completes a lock cycle: the reverse edge .*A\.mu -> .*B\.mu is taken at .*fixture\.go`
	a.mu.Unlock()
	b.mu.Unlock()
}

// relock self-deadlocks: sync.Mutex is not reentrant.
func relock(c *C) {
	c.mu.Lock()
	c.mu.Lock() // want `lock .*C\.mu acquired at .* while already held .*; recursive acquisition self-deadlocks`
}

// inverted takes E while holding F; the hierarchy says E is outer.
func inverted(e *E, f *F) {
	f.mu.Lock()
	e.mu.Lock() // want `acquiring .*E\.mu \(rank 3\) at .* while holding .*F\.mu \(rank 4\) .* inverts the declared hierarchy`
	e.mu.Unlock()
	f.mu.Unlock()
}

// undocumented nests a class the order file does not declare.
func undocumented(a *A, d *D) {
	a.mu.Lock()
	d.mu.Lock() // want `undocumented lock class .*D\.mu in acquisition edge`
	d.mu.Unlock()
	a.mu.Unlock()
}

// outer acquires E two calls away while holding C — a transitive edge
// that agrees with the hierarchy, so nothing is flagged.
func outer(c *C, e *E) {
	c.mu.Lock()
	defer c.mu.Unlock()
	lockE(e)
}

func lockE(e *E) {
	e.mu.Lock()
	e.mu.Unlock()
}

// swapLocked is the drop-and-retake idiom (*wal.Log).syncLocked
// establishes: entered with c.mu held, it releases the caller's mutex
// and retakes it. The re-acquisition is not a recursive acquire.
func (c *C) swapLocked() {
	c.mu.Unlock()
	c.mu.Lock()
}

func useSwap(c *C) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.swapLocked()
}
