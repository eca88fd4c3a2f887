package transport

import "repro/internal/obs"

// instrumented wraps a Network and accounts every Send to a registry:
// message counts, bytes in both directions, round-trip latency and
// failures. The universe wraps its network with Instrument so the
// transport boundary is observable regardless of implementation.
type instrumented struct {
	inner Network
	m     *obs.TransportMetrics
}

// Instrument returns n with its Send path accounted to reg. A nil
// registry (or nil network) returns n unchanged.
func Instrument(n Network, reg *obs.Registry) Network {
	if n == nil || reg == nil {
		return n
	}
	return &instrumented{inner: n, m: obs.TransportView(reg)}
}

// Unwrap exposes the underlying network (tests reach Mem-specific
// controls like Sever through it).
func (i *instrumented) Unwrap() Network { return i.inner }

func (i *instrumented) Listen(addr string, h Handler) error { return i.inner.Listen(addr, h) }

func (i *instrumented) Unlisten(addr string) { i.inner.Unlisten(addr) }

func (i *instrumented) Send(addr string, req []byte) ([]byte, error) {
	i.m.Sends.Inc()
	i.m.BytesOut.Add(int64(len(req)))
	start := obs.Stopwatch()
	resp, err := i.inner.Send(addr, req)
	i.m.RTMicros.Observe((obs.Stopwatch() - start) / 1e3)
	if err != nil {
		i.m.SendErrors.Inc()
		return nil, err
	}
	i.m.BytesIn.Add(int64(len(resp)))
	return resp, nil
}
