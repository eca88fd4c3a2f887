package core

import (
	"testing"
)

// Cycler drops and recreates its subordinate — the hardest dynamic
// case for replay determinism.
type Cycler struct {
	Generation int

	ctx *Ctx
}

// AttachContext receives the context handle.
func (c *Cycler) AttachContext(cx *Ctx) { c.ctx = cx }

// Put stores into the current vault, creating it on demand.
func (c *Cycler) Put(n int) (int, error) {
	sub, ok := c.ctx.Subordinate("vault")
	if !ok {
		var err error
		sub, err = c.ctx.CreateSubordinate("vault", &Vault{})
		if err != nil {
			return 0, err
		}
	}
	res, err := sub.Call("Put", n)
	if err != nil {
		return 0, err
	}
	return res[0].(int), nil
}

// Cycle drops the vault and starts a new generation.
func (c *Cycler) Cycle() (int, error) {
	c.ctx.DropSubordinate("vault")
	c.Generation++
	return c.Generation, nil
}

func TestSubordinateDropAndRecreateReplays(t *testing.T) {
	u := newTestUniverse(t)
	cfg := testConfig()
	m, p := startProc(t, u, "evo1", "srv", cfg)
	h, err := p.Create("Cycler", &Cycler{})
	if err != nil {
		t.Fatal(err)
	}
	ref := u.ExternalRef(h.URI())
	callInt(t, ref, "Put", 5) // gen-0 vault: 5
	callInt(t, ref, "Put", 5) // gen-0 vault: 10
	callInt(t, ref, "Cycle")  // drop
	callInt(t, ref, "Put", 3) // gen-1 vault (fresh): 3
	p.Crash()

	p2, err := m.StartProcess("srv", cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	// Replay must reproduce the drop/recreate history exactly: the
	// recreated vault holds 3, not 13.
	if got := callInt(t, ref, "Put", 1); got != 4 {
		t.Errorf("post-recovery Put -> %d, want 4 (fresh generation)", got)
	}
	h2, _ := p2.Lookup("Cycler")
	if gen := h2.Object().(*Cycler).Generation; gen != 1 {
		t.Errorf("generation = %d, want 1", gen)
	}
}

func TestSubordinateDropAcrossStateRecord(t *testing.T) {
	// State saved after the drop: restore starts without the vault,
	// and subsequent replay re-creates only the new generation.
	u := newTestUniverse(t)
	cfg := testConfig()
	m, p := startProc(t, u, "evo1", "srv", cfg)
	h, err := p.Create("Cycler", &Cycler{})
	if err != nil {
		t.Fatal(err)
	}
	ref := u.ExternalRef(h.URI())
	callInt(t, ref, "Put", 7)
	callInt(t, ref, "Cycle")
	if err := h.SaveState(); err != nil {
		t.Fatal(err)
	}
	callInt(t, ref, "Put", 2)
	p.Crash()

	p2, err := m.StartProcess("srv", cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	if got := callInt(t, ref, "Put", 1); got != 3 {
		t.Errorf("Put after recovery -> %d, want 3", got)
	}
}

func TestUniverseShutdownPreservesState(t *testing.T) {
	dir := t.TempDir()
	u, err := NewUniverse(UniverseConfig{dev: powerCut(), Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	m, err := u.AddMachine("evo1")
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	p, err := m.StartProcess("srv", cfg)
	if err != nil {
		t.Fatal(err)
	}
	h, err := p.Create("Counter", &Counter{})
	if err != nil {
		t.Fatal(err)
	}
	ref := u.ExternalRef(h.URI())
	callInt(t, ref, "Add", 9)
	u.Shutdown()
	if !p.Crashed() {
		t.Error("process still live after Shutdown")
	}

	// A new universe over the same directory recovers everything.
	u2, err := NewUniverse(UniverseConfig{dev: powerCut(), Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	m2, err := u2.AddMachine("evo1")
	if err != nil {
		t.Fatal(err)
	}
	p2, err := m2.StartProcess("srv", cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	ref2 := u2.ExternalRef(h.URI())
	if got := callInt(t, ref2, "Get"); got != 9 {
		t.Errorf("counter after universe restart = %d, want 9", got)
	}
}
