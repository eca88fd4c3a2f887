package main

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/disk"
	"repro/internal/transport"
)

// seams wraps the two injection points UniverseConfig offers — the
// network and the per-process disk model — with span recording, counts
// and frame capture. Only traced runs install it; untraced runs drive
// the product's own Mem network and disk models directly.
type seams struct {
	rec *recorder

	sends     atomic.Int64
	sendBytes atomic.Int64 // request + response bytes
	handles   atomic.Int64

	diskWrites atomic.Int64
	diskSyncs  atomic.Int64
	diskWaitNs atomic.Int64

	capMu  sync.Mutex
	frames []framePair
}

// framePair is one captured request/response as it crossed the
// network seam; the layer replays decode and re-encode these.
type framePair struct {
	Req, Resp []byte
}

// maxFrames bounds the capture: the steady-state workloads repeat a
// short cycle of calls, so a prefix is representative.
const maxFrames = 4096

func newSeams(rec *recorder) *seams { return &seams{rec: rec} }

// counts is a snapshot of the seam counters.
type seamCounts struct {
	sends, sendBytes, handles       int64
	diskWrites, diskSyncs, diskWait int64
}

func (s *seams) counts() seamCounts {
	return seamCounts{
		sends: s.sends.Load(), sendBytes: s.sendBytes.Load(), handles: s.handles.Load(),
		diskWrites: s.diskWrites.Load(), diskSyncs: s.diskSyncs.Load(), diskWait: s.diskWaitNs.Load(),
	}
}

func (a seamCounts) sub(b seamCounts) seamCounts {
	return seamCounts{
		sends: a.sends - b.sends, sendBytes: a.sendBytes - b.sendBytes, handles: a.handles - b.handles,
		diskWrites: a.diskWrites - b.diskWrites, diskSyncs: a.diskSyncs - b.diskSyncs, diskWait: a.diskWait - b.diskWait,
	}
}

func (s *seams) capturedFrames() []framePair {
	s.capMu.Lock()
	defer s.capMu.Unlock()
	return append([]framePair(nil), s.frames...)
}

// network wraps inner so every Send and every handled request is a
// span.
func (s *seams) network(inner transport.Network) transport.Network {
	return &tracedNet{inner: inner, s: s}
}

type tracedNet struct {
	inner transport.Network
	s     *seams
}

func (n *tracedNet) Listen(addr string, h transport.Handler) error {
	return n.inner.Listen(addr, func(req []byte) ([]byte, error) {
		sp := n.s.rec.begin(spanNetHandle)
		resp, err := h(req)
		n.s.rec.end(sp)
		if sp.recorded() {
			n.s.handles.Add(1)
		}
		return resp, err
	})
}

func (n *tracedNet) Unlisten(addr string) { n.inner.Unlisten(addr) }

func (n *tracedNet) Send(addr string, req []byte) ([]byte, error) {
	sp := n.s.rec.begin(spanNetSend)
	resp, err := n.inner.Send(addr, req)
	n.s.rec.end(sp)
	if sp.recorded() && err == nil {
		n.s.sends.Add(1)
		n.s.sendBytes.Add(int64(len(req) + len(resp)))
		n.s.capture(req, resp)
	}
	return resp, err
}

func (s *seams) capture(req, resp []byte) {
	s.capMu.Lock()
	if len(s.frames) < maxFrames {
		s.frames = append(s.frames, framePair{
			Req:  append([]byte(nil), req...),
			Resp: append([]byte(nil), resp...),
		})
	}
	s.capMu.Unlock()
}

// diskModel wraps inner so every physical write and sync the log
// reports to its device model is a span, and the time spent inside the
// model (the simulated rotation wait; nothing on the host model) is
// counted as device wait.
func (s *seams) diskModel(inner disk.Model) disk.Model {
	return &tracedDisk{inner: inner, s: s}
}

type tracedDisk struct {
	inner disk.Model
	s     *seams
}

func (d *tracedDisk) Name() string { return d.inner.Name() }

func (d *tracedDisk) Write(n int) {
	sp := d.s.rec.begin(spanDiskWrite)
	start := time.Now()
	d.inner.Write(n)
	wait := time.Since(start)
	d.s.rec.end(sp)
	if sp.recorded() {
		d.s.diskWrites.Add(1)
		d.s.diskWaitNs.Add(int64(wait))
	}
}

func (d *tracedDisk) Sync() {
	sp := d.s.rec.begin(spanDiskSync)
	start := time.Now()
	d.inner.Sync()
	wait := time.Since(start)
	d.s.rec.end(sp)
	if sp.recorded() {
		d.s.diskSyncs.Add(1)
		d.s.diskWaitNs.Add(int64(wait))
	}
}
