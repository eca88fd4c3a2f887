package main

import (
	phoenix "repro"
)

// tracer is the recorder the benchmark's own component method bodies
// report to; nil on untraced runs. It is package state because the
// runtime instantiates components itself during recovery, so nothing
// can be passed to them.
var tracer *recorder

func init() {
	// Restarts recover components this binary did not create in the
	// restarted process instance.
	phoenix.RegisterComponentType(&Counter{})
	phoenix.RegisterComponentType(&Forwarder{})
}

// Counter is the benchmark server component: one persistent integer.
type Counter struct{ N int }

// Add mutates state and returns the new value, which callers check
// against their model.
func (c *Counter) Add(d int) (int, error) {
	sp := tracer.begin(spanAppExec)
	c.N += d
	tracer.end(sp)
	return c.N, nil
}

// Forwarder is the benchmark's persistent client component: Forward
// relays one call to its server, the Persistent→Persistent hop of
// paper Table 4.
type Forwarder struct {
	Server *phoenix.Ref
}

// Forward relays Add(d) and returns the server's answer.
func (f *Forwarder) Forward(d int) (int, error) {
	sp := tracer.begin(spanAppExec)
	call := tracer.begin(spanCall)
	res, err := f.Server.Call("Add", d)
	tracer.end(call)
	tracer.end(sp)
	if err != nil {
		return 0, err
	}
	return res[0].(int), nil
}
