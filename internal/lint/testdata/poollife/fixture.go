// Fixture for the poollife analyzer: getBuf/freeBuf stand in for
// msg.GetBuf/msg.FreeBuf, Record.Payload for the WAL scan payload
// window, Reader.ReadAt for the positioned reader whose records alias
// its read-ahead block.
package poollife

func getBuf(n int) []byte { return make([]byte, n) }
func freeBuf([]byte)      {}

type Record struct{ Payload []byte }

type holder struct{ b []byte }

var global []byte

var sink = make(chan []byte, 1)

// good frees exactly once on the straight-line path.
func good() {
	b := getBuf(8)
	b[0] = 1
	freeBuf(b)
}

// goodDefer frees exactly once via defer.
func goodDefer() {
	b := getBuf(8)
	defer freeBuf(b)
	b[0] = 1
}

// appendAndFree keeps ownership through an append chain (the
// EncodeCall pattern) and still frees once.
func appendAndFree(n int) {
	b := getBuf(n)
	b = append(b, 1, 2, 3)
	freeBuf(b)
}

// errPath frees on the early exit and on the fall-through — one free
// per path, so nothing is flagged.
func errPath(fail bool) int {
	b := getBuf(8)
	if fail {
		freeBuf(b)
		return 1
	}
	freeBuf(b)
	return 0
}

func neverFreed() {
	b := getBuf(8) // want `pooled buffer b acquired in .*neverFreed is never freed`
	b[0] = 1
}

func doubleFree() {
	b := getBuf(8)
	freeBuf(b)
	freeBuf(b) // want `pooled buffer b freed twice` `pooled buffer b used after FreeBuf`
}

func deferPlusLexical() {
	b := getBuf(8)
	defer freeBuf(b)
	freeBuf(b) // want `freed here and again by a deferred FreeBuf`
}

func useAfterFree() {
	b := getBuf(8)
	freeBuf(b)
	b[0] = 1 // want `pooled buffer b used after FreeBuf`
}

func escapeGlobal() {
	b := getBuf(8)
	global = b // want `pooled buffer stored to package-level variable global`
	freeBuf(b)
}

func escapeField(h *holder) {
	b := getBuf(8)
	h.b = b // want `pooled buffer stored to field b`
	freeBuf(b)
}

func escapeChan() {
	b := getBuf(8)
	sink <- b // want `pooled buffer sent on a channel`
	freeBuf(b)
}

// leakSubSlice hands out a window into pooled memory: flagged both as
// the escape and as a buffer that is never returned to the pool.
func leakSubSlice() []byte {
	b := getBuf(8) // want `pooled buffer b acquired in .*leakSubSlice is never freed`
	return b[:4]   // want `pooled buffer returned as a sub-slice`
}

// transferOwnership returns the whole pooled buffer — the producer
// pattern that must be documented with an allowlist entry.
func transferOwnership() []byte {
	b := getBuf(8)
	return b // want `pooled buffer returned in .*transferOwnership`
}

// keepPayload stores a scan-window payload that is only valid until
// the callback returns.
func keepPayload(r *Record) {
	global = r.Payload // want `WAL record payload .* stored to package-level variable global`
}

// leakPayloadSlice aliases the payload window and returns part of it.
func leakPayloadSlice(r *Record) []byte {
	p := r.Payload
	return p[2:] // want `WAL record payload .* returned as a sub-slice`
}

// decodePayload reads the payload in place inside the window: fine.
func decodePayload(r *Record) byte {
	return r.Payload[0]
}

type Reader struct{ blk []byte }

func (r *Reader) ReadAt(lsn uint64) (Record, error) { return Record{Payload: r.blk}, nil }

type recHolder struct{ rec Record }

// keepPositioned retains a record read through the positioned reader:
// its payload aliases the reader's block, which the next ReadAt
// overwrites.
func keepPositioned(r *Reader, h *recHolder) error {
	rec, err := r.ReadAt(1)
	if err != nil {
		return err
	}
	h.rec = rec // want `WAL record payload .* stored to field rec`
	return nil
}

// forwardPositioned hands the aliasing record to its caller.
func forwardPositioned(r *Reader) (Record, error) {
	return r.ReadAt(1) // want `WAL record payload .* returned in .*forwardPositioned`
}

// decodePositioned reads the payload before the next ReadAt: fine.
func decodePositioned(r *Reader) byte {
	rec, _ := r.ReadAt(1)
	return rec.Payload[0]
}

// Hold fills the block ahead of the reads and returns no Record: it
// opens no window, so the analyzer's Windows list names ReadAt alone.
func (r *Reader) Hold(lo, hi uint64) { r.blk = r.blk[:0] }

// holdThenDecode holds a span and decodes records out of it: fine — the
// records still come from ReadAt and are used before the next one.
func holdThenDecode(r *Reader) byte {
	r.Hold(1, 9)
	a, _ := r.ReadAt(1)
	x := a.Payload[0]
	b, _ := r.ReadAt(9)
	return x + b.Payload[0]
}

// keepHeld retains a record served from a held span: still the
// reader's block, still overwritten by the next read that misses.
func keepHeld(r *Reader, h *recHolder) {
	r.Hold(1, 9)
	rec, _ := r.ReadAt(1)
	h.rec = rec // want `WAL record payload .* stored to field rec`
}
