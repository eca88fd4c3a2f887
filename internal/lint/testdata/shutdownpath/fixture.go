// Fixture for the shutdownpath analyzer: spawned goroutines must
// signal termination and be joined from a shutdown root; latch closes
// must be idempotent.
package shutdownpath

import "sync"

// Engine is the good field-signal pattern: the loop closes done, and
// Close (a shutdown root) joins it.
type Engine struct {
	stopCh chan struct{}
	done   chan struct{}
}

func (e *Engine) Start() {
	go func() {
		defer close(e.done)
		<-e.stopCh
	}()
}

func (e *Engine) Close() {
	close(e.stopCh)
	<-e.done
}

// Pool is the good WaitGroup pattern (the replay engine's workers):
// workers Done a field WaitGroup that Close waits on.
type Pool struct {
	wg   sync.WaitGroup
	quit chan struct{}
}

func (p *Pool) start(n int) {
	for i := 0; i < n; i++ {
		p.wg.Add(1)
		go p.worker()
	}
}

func (p *Pool) worker() {
	defer p.wg.Done()
	<-p.quit
}

func (p *Pool) Close() {
	close(p.quit)
	p.wg.Wait()
}

// fanout joins its local WaitGroup unconditionally before returning.
func fanout(n int) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
		}()
	}
	wg.Wait()
}

// leak spawns a goroutine with no termination signal at all.
func (e *Engine) leak() {
	go func() { // want `goroutine spawned in .*leak.* has no termination signal`
		for {
			if e == nil {
				return
			}
		}
	}()
}

// Orphan signals a done field that no Close/Crash/stop path ever
// joins.
type Orphan struct{ done chan struct{} }

func (o *Orphan) run() {
	go func() { // want `signals .*Orphan\.done but no Close/Crash/stop path joins it`
		close(o.done)
	}()
}

// window races a timer goroutine against other wake-ups: the join is
// one arm of a multi-case select, so the goroutine may outlive the
// function.
func window(full chan struct{}) bool {
	timer := make(chan struct{})
	go func() { // want `signals a local channel/WaitGroup that .* does not unconditionally join`
		close(timer)
	}()
	select {
	case <-timer:
		return false
	case <-full:
		return true
	}
}

// Gate is the latch under test (configured as a latch class).
type Gate struct {
	ready chan struct{}
	once  sync.Once
}

// markReady is the blessed idempotent open: ready-poll plus default.
func (g *Gate) markReady() {
	select {
	case <-g.ready:
	default:
		close(g.ready)
	}
}

// openOnce is the other accepted guard.
func (g *Gate) openOnce() {
	g.once.Do(func() { close(g.ready) })
}

// stop makes markReady reachable from a shutdown root.
func (g *Gate) stop() {
	g.markReady()
}

// openUnguarded closes the latch bare: a second close panics, so
// shutdown and completion cannot race through it.
func (g *Gate) openUnguarded() {
	close(g.ready) // want `close of latch .*Gate\.ready in .* is not idempotent`
}
