package phoenix_test

import (
	"bytes"
	"strings"
	"testing"
	"time"

	phoenix "repro"
)

// Vault is a subordinate for the facade coverage test.
type Vault struct {
	N int
}

// Keep stores a value.
func (v *Vault) Keep(n int) (int, error) { v.N += n; return v.N, nil }

// Host is a parent with a static subordinate and a ref field.
type Host struct {
	Peer *phoenix.Ref
	Sum  int

	ctx *phoenix.Ctx
}

// AttachContext receives the context handle.
func (h *Host) AttachContext(cx *phoenix.Ctx) { h.ctx = cx }

// Stash forwards into the subordinate.
func (h *Host) Stash(n int) (int, error) {
	sub, ok := h.ctx.Subordinate("vault")
	if !ok {
		return 0, nil
	}
	res, err := sub.Call("Keep", n)
	if err != nil {
		return 0, err
	}
	h.Sum = res[0].(int)
	return h.Sum, nil
}

// Relay calls the peer through the bound ref field.
func (h *Host) Relay(n int) (int, error) {
	res, err := h.Peer.Call("Keep", n)
	if err != nil {
		return 0, err
	}
	return res[0].(int), nil
}

// TestFacadeSurface exercises the remaining public API: the simulation
// plumbing, WithType/WithSubordinate/NewRef, the event surface,
// RegisterComponentType, and DumpLog.
func TestFacadeSurface(t *testing.T) {
	phoenix.RegisterComponentType(&Vault{})

	// Simulation plumbing: virtual clock, sim disk, Mem network.
	clk := phoenix.NewVirtualClock()
	params := phoenix.DefaultDiskParams()
	if params.RPM != 7200 {
		t.Errorf("default RPM = %v", params.RPM)
	}
	d := phoenix.NewSimDisk(params, clk)
	t0 := clk.Now()
	d.Write(1024)
	if clk.Now().Sub(t0) < 4*time.Millisecond {
		t.Error("sim disk did not charge rotational latency")
	}
	real := phoenix.NewRealClock(0.5)
	real.Sleep(time.Microsecond)

	net := phoenix.NewMemNetwork(clk, 100*time.Microsecond)

	reg := phoenix.NewMetricsRegistry()
	cfg := phoenix.Config{
		LogMode:          phoenix.LogOptimized,
		SpecializedTypes: true,
		SaveStateEvery:   2,
		Metrics:          reg,
	}
	u, err := phoenix.NewUniverse(phoenix.UniverseConfig{
		Dir:   t.TempDir(),
		Clock: clk,
		Net:   net,
	})
	if err != nil {
		t.Fatal(err)
	}
	m, err := u.AddMachine("evo1")
	if err != nil {
		t.Fatal(err)
	}
	p, err := m.StartProcess("srv", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if p.Name() != "srv" || p.ProcID() == 0 || p.Machine() != m {
		t.Error("process accessors broken")
	}
	if p.Config().SaveStateEvery != 2 {
		t.Error("Config accessor broken")
	}
	if u.Clock() != phoenix.Clock(clk) {
		t.Error("Clock accessor broken")
	}
	if m.Service() == nil {
		t.Error("Service accessor broken")
	}

	hPeer, err := p.Create("Peer", &Vault{}, phoenix.WithType(phoenix.Persistent))
	if err != nil {
		t.Fatal(err)
	}
	host := &Host{Peer: phoenix.NewRef(hPeer.URI())}
	hHost, err := p.Create("Host", host, phoenix.WithSubordinate("vault", &Vault{}))
	if err != nil {
		t.Fatal(err)
	}
	if hHost.Ctx().URI() != hHost.URI() {
		t.Error("Ctx().URI() mismatch")
	}

	created := hHost.RestartLSN()
	ref := u.ExternalRef(hHost.URI())
	if _, err := ref.Call("Stash", 3); err != nil {
		t.Fatal(err)
	}
	if _, err := ref.Call("Relay", 4); err != nil {
		t.Fatal(err)
	}
	if _, err := ref.Call("Stash", 1); err != nil {
		t.Fatal(err)
	}
	if reg.Snapshot().Counter("ckpt.state_saves") == 0 || hHost.RestartLSN() <= created {
		t.Error("no state save surfaced through the facade")
	}

	logDir := p.LogDir()
	p.Close()
	var buf bytes.Buffer
	if err := phoenix.DumpLog(&buf, logDir); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Host") {
		t.Errorf("DumpLog output missing component name:\n%s", buf.String())
	}
}
