package core

import (
	"reflect"
	"testing"

	"repro/internal/msg"
	"repro/internal/rpc"
)

// encodeArgsHelper lets white-box tests build wire calls.
func encodeArgsHelper(args ...any) ([]byte, int, error) {
	return rpc.EncodeArgs(args...)
}

// serve runs call through the server interceptor, as the transport
// handler does, and returns the reply it filled, after checking that
// the envelope it returned says the same.
func serve(t testing.TB, p *Process, call *msg.Call) *msg.Reply {
	t.Helper()
	var reply msg.Reply
	data := p.serveCall(call, &reply)
	sent, err := msg.DecodeReply(data)
	if err != nil {
		t.Fatalf("serveCall's envelope does not decode: %v", err)
	}
	if !reflect.DeepEqual(*sent, reply) {
		t.Fatalf("serveCall's envelope says %+v, its reply %+v", *sent, reply)
	}
	return &reply
}
