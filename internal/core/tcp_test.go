package core

import (
	"bytes"
	"fmt"
	"net"
	"sync"
	"testing"

	"repro/internal/disk"
	"repro/internal/msg"
	"repro/internal/transport"
)

// loopbackAddrs returns an AddrFor that gives each named machine/process
// a loopback port of its own.
func loopbackAddrs(t *testing.T, names ...string) func(machine, process string) string {
	addrs := make(map[string]string, len(names))
	for _, name := range names {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[name] = ln.Addr().String()
		ln.Close()
	}
	return func(machine, process string) string { return addrs[machine+"/"+process] }
}

// TestTCPUniverse runs two processes over real sockets: the same
// runtime, a different Network, exercising the binary framing end to end.
func TestTCPUniverse(t *testing.T) {
	tcp := transport.NewTCP()
	defer tcp.Close()
	u, err := NewUniverse(UniverseConfig{
		dev:     powerCut(),
		Dir:     t.TempDir(),
		Net:     tcp,
		AddrFor: loopbackAddrs(t, "evo1/cli", "evo2/srv"),
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	_, pc := startProc(t, u, "evo1", "cli", cfg)
	ms, ps := startProc(t, u, "evo2", "srv", cfg)
	defer pc.Close()

	hc, err := ps.Create("Counter", &Counter{})
	if err != nil {
		t.Fatal(err)
	}
	hr, err := pc.Create("Relay", &Relay{Server: NewRef(hc.URI())})
	if err != nil {
		t.Fatal(err)
	}
	ref := u.ExternalRef(hr.URI())
	for i := 1; i <= 3; i++ {
		if got := callInt(t, ref, "Forward", 2); got != 2*i {
			t.Errorf("Forward -> %d, want %d", got, 2*i)
		}
	}

	// Crash the server and restart it on the same port: the pooled
	// client connection must redial and recovery must hold the state.
	ps.Crash()
	p2, err := ms.StartProcess("srv", cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	if got := callInt(t, ref, "Forward", 2); got != 8 {
		t.Errorf("Forward after TCP restart -> %d, want 8", got)
	}
}

func TestConcurrentClientsOneServer(t *testing.T) {
	// Multiple persistent clients hammer one server concurrently; the
	// single-threaded context serializes them and every increment is
	// applied exactly once.
	u := newTestUniverse(t)
	cfg := testConfig()
	_, ps := startProc(t, u, "evoS", "srv", cfg)
	defer ps.Close()
	hc, err := ps.Create("Counter", &Counter{})
	if err != nil {
		t.Fatal(err)
	}

	const clients = 6
	const callsEach = 10
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		mName := fmt.Sprintf("evoC%d", c)
		_, pc := startProc(t, u, mName, "cli", cfg)
		defer pc.Close()
		hr, err := pc.Create("Relay", &Relay{Server: NewRef(hc.URI())})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(uri string) {
			defer wg.Done()
			ref := u.ExternalRef(hr.URI())
			for i := 0; i < callsEach; i++ {
				if _, err := ref.Call("Forward", 1); err != nil {
					errs <- err
					return
				}
			}
		}(string(hr.URI()))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	final := u.ExternalRef(hc.URI())
	if got := callInt(t, final, "Get"); got != clients*callsEach {
		t.Errorf("counter = %d, want %d", got, clients*callsEach)
	}
}

// recordNet keeps a copy of the first call with an ID that it carries
// — a persistent caller's — and of the reply that answered it.
type recordNet struct {
	transport.Network
	mu              sync.Mutex
	addr            string
	req, firstReply []byte
}

func (n *recordNet) Send(addr string, req []byte) ([]byte, error) {
	resp, err := n.Network.Send(addr, req)
	if err != nil {
		return nil, err
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if c, derr := msg.DecodeCall(req); derr == nil && !c.ID.IsZero() && n.req == nil {
		n.addr, n.req, n.firstReply = addr, bytes.Clone(req), bytes.Clone(resp)
	}
	return resp, nil
}

// TestKeptReplySurvivesBufferReuse: a server keeps a call's results as
// a view of the reply envelope it sent, so that envelope must be bytes
// no one else writes — never a pooled buffer. After one P→P call the
// pool is churned with poison, as TestPooledReplyWouldCorrupt churns
// it, and the call is sent again with its ID: the duplicate must be
// answered from the last-call table byte for byte as the original was,
// the reply attachment included, on both transports.
func TestKeptReplySurvivesBufferReuse(t *testing.T) {
	t.Run("mem", func(t *testing.T) {
		testKeptReply(t, transport.NewMem(disk.NewRealClock(1), 0), nil)
	})
	t.Run("tcp", func(t *testing.T) {
		tcp := transport.NewTCP()
		defer tcp.Close()
		testKeptReply(t, tcp, loopbackAddrs(t, "evo1/cli", "evo2/srv"))
	})
}

func testKeptReply(t *testing.T, network transport.Network, addrFor func(machine, process string) string) {
	rec := &recordNet{Network: network}
	u, err := NewUniverse(UniverseConfig{dev: powerCut(), Dir: t.TempDir(), Net: rec, AddrFor: addrFor})
	if err != nil {
		t.Fatal(err)
	}
	_, pc := startProc(t, u, "evo1", "cli", testConfig())
	defer pc.Close()
	_, ps := startProc(t, u, "evo2", "srv", testConfig())
	defer ps.Close()
	hc, err := ps.Create("Counter", &Counter{})
	if err != nil {
		t.Fatal(err)
	}
	hr, err := pc.Create("Relay", &Relay{Server: NewRef(hc.URI())})
	if err != nil {
		t.Fatal(err)
	}
	if got := callInt(t, u.ExternalRef(hr.URI()), "Forward", 7); got != 7 {
		t.Fatalf("Forward -> %d, want 7", got)
	}
	rec.mu.Lock()
	addr, req, first := rec.addr, rec.req, rec.firstReply
	rec.mu.Unlock()
	if req == nil {
		t.Fatal("no call with an ID crossed the network")
	}
	if r, err := msg.DecodeReply(first); err != nil || !r.HasAttachment || r.NumResults != 1 {
		t.Fatalf("first reply %+v (%v): want one result and the attachment", r, err)
	}

	// Poison every buffer the pool hands out, in rounds, and run calls
	// that draw on it in between.
	ext := u.ExternalRef(hc.URI())
	for round := 0; round < 8; round++ {
		var bufs [64][]byte
		for i := range bufs {
			b := msg.GetBuf()
			b = b[:cap(b)]
			for j := range b {
				b[j] = 0xEE
			}
			bufs[i] = b
		}
		for _, b := range bufs {
			msg.FreeBuf(b)
		}
		callInt(t, ext, "Add", 0)
	}

	again, err := network.Send(addr, req)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, first) {
		t.Errorf("duplicate answered\n%x\nthe original was\n%x", again, first)
	}
	if n := hc.Object().(*Counter).N; n != 7 {
		t.Errorf("counter = %d, want 7: the duplicate ran again", n)
	}
}
