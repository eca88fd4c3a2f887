package core

import (
	"fmt"
	"net"
	"sync"
	"testing"

	"repro/internal/transport"
)

// TestTCPUniverse runs two processes over real sockets: the same
// runtime, a different Network, exercising the binary framing end to end.
func TestTCPUniverse(t *testing.T) {
	// Allocate two loopback ports.
	addrs := make(map[string]string)
	var mu sync.Mutex
	freePort := func() string {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		a := ln.Addr().String()
		ln.Close()
		return a
	}
	addrs["evo1/cli"] = freePort()
	addrs["evo2/srv"] = freePort()

	tcp := transport.NewTCP()
	defer tcp.Close()
	u, err := NewUniverse(UniverseConfig{
		Dir: t.TempDir(),
		Net: tcp,
		AddrFor: func(machine, process string) string {
			mu.Lock()
			defer mu.Unlock()
			return addrs[machine+"/"+process]
		},
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
