package bench

import (
	"fmt"
	"time"

	phoenix "repro"
	"repro/internal/msg"
	"repro/internal/rpc"
)

// Micro-benchmark components (the paper's client/server pair with the
// measurement loop inside the client object, Section 5.1).

// BenchServer is the persistent server.
type BenchServer struct {
	N int
}

// Add mutates server state.
func (s *BenchServer) Add(d int) (int, error) { s.N += d; return s.N, nil }

// Get is a candidate read-only method.
func (s *BenchServer) Get() (int, error) { return s.N, nil }

// BenchBatcher is the client component: one incoming call drives n
// outgoing calls.
type BenchBatcher struct {
	Server *phoenix.Ref
	Sum    int
}

// RunBatch calls method(arg) n times on the server.
func (b *BenchBatcher) RunBatch(method string, n, arg int) (int, error) {
	for i := 0; i < n; i++ {
		res, err := b.Server.Call(method, arg)
		if err != nil {
			return 0, err
		}
		if len(res) == 1 {
			if v, ok := res[0].(int); ok {
				b.Sum += v
			}
		}
	}
	return b.Sum, nil
}

// RunBatchNoArg calls a zero-argument method n times.
func (b *BenchBatcher) RunBatchNoArg(method string, n int) (int, error) {
	for i := 0; i < n; i++ {
		res, err := b.Server.Call(method)
		if err != nil {
			return 0, err
		}
		if len(res) == 1 {
			if v, ok := res[0].(int); ok {
				b.Sum += v
			}
		}
	}
	return b.Sum, nil
}

// BenchPure is the functional server.
type BenchPure struct{}

// Double is pure.
func (BenchPure) Double(x int) (int, error) { return 2 * x, nil }

// BenchEcho is a self-contained read-only component (a stateless
// reader; the statistics-collector example of Section 3.2.3).
type BenchEcho struct{}

// Echo returns its input.
func (BenchEcho) Echo(x int) (int, error) { return x, nil }

// BenchSubHost hosts a subordinate and fans calls into it.
type BenchSubHost struct {
	Total int

	ctx *phoenix.Ctx
}

// AttachContext receives the context handle.
func (h *BenchSubHost) AttachContext(cx *phoenix.Ctx) { h.ctx = cx }

// BatchSub calls the subordinate n times (unintercepted, unlogged).
func (h *BenchSubHost) BatchSub(n int) (int, error) {
	sub, ok := h.ctx.Subordinate("vault")
	if !ok {
		return 0, fmt.Errorf("bench: no subordinate")
	}
	for i := 0; i < n; i++ {
		res, err := sub.Call("Add", 1)
		if err != nil {
			return 0, err
		}
		h.Total = res[0].(int)
	}
	return h.Total, nil
}

// measurement is one micro-benchmark cell.
type measurement struct {
	perCall time.Duration
	// forcesPerCall counts physical log forces per call summed over
	// both processes — the quantity the optimizations reduce.
	forcesPerCall float64
}

// runRaw measures the "native .NET object" analogue: transport + value
// marshalling + reflection dispatch, with no Phoenix contexts or
// interception (Table 4's MarshalByRefObject row).
func runRaw(e *env, calls int) (measurement, error) {
	disp, err := rpc.NewDispatcher(&BenchServer{})
	if err != nil {
		return measurement{}, err
	}
	const addr = "raw/srv"
	err = e.mem.Listen(addr, func(req []byte) ([]byte, error) {
		call, err := msg.DecodeCall(req)
		if err != nil {
			return nil, err
		}
		results, nres, appErr, err := disp.InvokeEncoded(call.Method, call.Args, call.NumArgs)
		if err != nil {
			return nil, err
		}
		return msg.EncodeReply(&msg.Reply{ID: call.ID, Results: results, NumResults: nres, AppErr: appErr})
	})
	if err != nil {
		return measurement{}, err
	}
	defer e.mem.Unlisten(addr)

	per, err := e.perCall(calls, func() error {
		for i := 0; i < calls; i++ {
			args, n, err := rpc.EncodeArgs(1)
			if err != nil {
				return err
			}
			data, err := msg.EncodeCall(&msg.Call{Method: "Add", Args: args, NumArgs: n})
			if err != nil {
				return err
			}
			resp, err := e.mem.Send(addr, data)
			if err != nil {
				return err
			}
			if _, err := msg.DecodeReply(resp); err != nil {
				return err
			}
		}
		return nil
	})
	return measurement{perCall: per}, err
}

// runExternalTo measures an external client looping calls against a
// hosted component of the given type.
func runExternalTo(e *env, cfg phoenix.Config, obj any, opts []phoenix.CreateOption,
	method string, args []any, calls int) (measurement, error) {
	pc, ps, err := e.startPair(cfg)
	if err != nil {
		return measurement{}, err
	}
	defer pc.Close()
	defer ps.Close()
	h, err := ps.Create(uniqueProc("Comp"), obj, opts...)
	if err != nil {
		return measurement{}, err
	}
	ref := e.u.ExternalRef(h.URI())
	if _, err := ref.Call(method, args...); err != nil { // warm up
		return measurement{}, err
	}
	ps.ResetLogStats()
	per, err := e.perCall(calls, func() error {
		for i := 0; i < calls; i++ {
			if _, err := ref.Call(method, args...); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return measurement{}, err
	}
	forces := float64(ps.LogStats().Forces) / float64(calls)
	return measurement{perCall: per, forcesPerCall: forces}, nil
}

// runBatch measures the paper's in-client loop: an external envelope
// call drives `calls` outgoing calls from a hosted client component to
// a hosted server component. The envelope cost (two forces at the
// client) is measured separately with a zero-length batch and
// subtracted.
func runBatch(e *env, cfg phoenix.Config, clientType phoenix.ComponentType,
	serverObj any, serverOpts []phoenix.CreateOption,
	method string, arg *int, calls int) (measurement, error) {
	pc, ps, err := e.startPair(cfg)
	if err != nil {
		return measurement{}, err
	}
	defer pc.Close()
	defer ps.Close()
	hs, err := ps.Create(uniqueProc("Server"), serverObj, serverOpts...)
	if err != nil {
		return measurement{}, err
	}
	clientOpts := []phoenix.CreateOption(nil)
	if clientType != phoenix.Persistent {
		clientOpts = append(clientOpts, phoenix.WithType(clientType))
	}
	hb, err := pc.Create(uniqueProc("Batcher"), &BenchBatcher{Server: phoenix.NewRef(hs.URI())}, clientOpts...)
	if err != nil {
		return measurement{}, err
	}
	ref := e.u.ExternalRef(hb.URI())

	drive := func(n int) error {
		var err error
		if arg == nil {
			_, err = ref.Call("RunBatchNoArg", method, n)
		} else {
			_, err = ref.Call("RunBatch", method, n, *arg)
		}
		return err
	}
	if err := drive(1); err != nil { // warm up: learn server types
		return measurement{}, err
	}
	// Envelope cost alone.
	envelope, err := e.elapsed(func() error { return drive(0) })
	if err != nil {
		return measurement{}, err
	}
	pc.ResetLogStats()
	ps.ResetLogStats()
	total, err := e.elapsed(func() error { return drive(calls) })
	if err != nil {
		return measurement{}, err
	}
	per := (total - envelope) / time.Duration(calls)
	if per < 0 {
		per = 0
	}
	// Exclude the envelope's own forces (2 at the client).
	forces := float64(pc.LogStats().Forces+ps.LogStats().Forces-2) / float64(calls)
	if forces < 0 {
		forces = 0
	}
	return measurement{perCall: per, forcesPerCall: forces}, nil
}

// runSubordinate measures parent→subordinate calls.
func runSubordinate(e *env, cfg phoenix.Config, inner int) (measurement, error) {
	pc, ps, err := e.startPair(cfg)
	if err != nil {
		return measurement{}, err
	}
	defer pc.Close()
	defer ps.Close()
	h, err := ps.Create(uniqueProc("SubHost"), &BenchSubHost{},
		phoenix.WithSubordinate("vault", &BenchServer{}))
	if err != nil {
		return measurement{}, err
	}
	ref := e.u.ExternalRef(h.URI())
	if _, err := ref.Call("BatchSub", 1); err != nil {
		return measurement{}, err
	}
	envelope, err := e.elapsed(func() error {
		_, err := ref.Call("BatchSub", 0)
		return err
	})
	if err != nil {
		return measurement{}, err
	}
	total, err := e.elapsed(func() error {
		_, err := ref.Call("BatchSub", inner)
		return err
	})
	if err != nil {
		return measurement{}, err
	}
	per := (total - envelope) / time.Duration(inner)
	if per < 0 {
		per = 0
	}
	return measurement{perCall: per}, nil
}
