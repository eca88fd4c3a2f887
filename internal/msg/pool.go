package msg

import "sync"

// Scratch-buffer pool for the envelope codec. Encoding a Call or Reply
// happens once per message on every hot path of Figure 1 (client send,
// server reply, and the log records that embed them), so the codec
// draws its output buffers from a sync.Pool instead of allocating.
//
// Ownership rule (DESIGN.md Section 10): a buffer returned by
// EncodeCall/EncodeReply belongs to the caller until it calls FreeBuf,
// after which the buffer must not be touched. Callers that hand the
// bytes to a transport may FreeBuf as soon as the send returns, because
// transport handlers must not retain request buffers. Callers that
// cannot prove release (e.g. a reply cached in a table) simply never
// FreeBuf — the pool sees a miss later, never a corruption.

// minBufCap is the smallest capacity handed out; tiny messages share
// one size class so the pool stays hot across mixed workloads.
const minBufCap = 256

// maxPooledCap bounds what FreeBuf keeps: an occasional huge message
// must not pin megabytes inside the pool forever.
const maxPooledCap = 1 << 20

// bufPool holds free buffers, each in a *[]byte holder. FreeBuf takes
// the holder from holderPool, where GetBuf put the one it emptied —
// never &b of its own argument, which would allocate (DESIGN §10).
var (
	bufPool    sync.Pool
	holderPool = sync.Pool{New: func() any { return new([]byte) }}
)

// GetBuf returns a pooled scratch buffer of zero length. The codec's
// encoders call it internally; it is exported for callers that frame
// their own bytes (the WAL's encode-into path).
func GetBuf() []byte {
	p, _ := bufPool.Get().(*[]byte)
	if p == nil {
		return make([]byte, 0, minBufCap)
	}
	b := *p
	*p = nil
	holderPool.Put(p)
	return b
}

// FreeBuf returns a buffer obtained from GetBuf (or from one of the
// Encode functions) to the pool. Freeing nil or a foreign buffer is
// harmless; the buffer must not be used after the call.
func FreeBuf(b []byte) {
	if cap(b) == 0 || cap(b) > maxPooledCap {
		return
	}
	p := holderPool.Get().(*[]byte)
	*p = b[:0]
	bufPool.Put(p)
}
