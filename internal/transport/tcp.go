package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// TCP is a Network over real sockets. Addresses are host:port strings.
// Each request/response is a length-prefixed frame; client connections
// are pooled per destination and redialed after failures, so a server
// process that crashes and restarts on the same port is transparently
// reconnected to — which is exactly the situation Phoenix recovery
// produces.
type TCP struct {
	// DialTimeout bounds connection attempts (default 2s).
	DialTimeout time.Duration

	mu        sync.Mutex
	listeners map[string]*tcpListener
	conns     map[string]*tcpConn
}

// NewTCP returns a socket-based Network.
func NewTCP() *TCP {
	return &TCP{
		DialTimeout: 2 * time.Second,
		listeners:   make(map[string]*tcpListener),
		conns:       make(map[string]*tcpConn),
	}
}

type tcpListener struct {
	ln     net.Listener
	closed chan struct{}
}

// Listen implements Network: it binds addr and serves frames to h.
func (t *TCP) Listen(addr string, h Handler) error {
	if h == nil {
		return fmt.Errorf("transport: nil handler for %q", addr)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	l := &tcpListener{ln: ln, closed: make(chan struct{})}
	t.mu.Lock()
	if old := t.listeners[addr]; old != nil {
		old.ln.Close()
	}
	t.listeners[addr] = l
	t.mu.Unlock()
	go t.serve(l, h)
	return nil
}

func (t *TCP) serve(l *tcpListener, h Handler) {
	for {
		conn, err := l.ln.Accept()
		if err != nil {
			select {
			case <-l.closed:
			default:
				close(l.closed)
			}
			return
		}
		go func() {
			defer conn.Close()
			// Request and response frames stage in per-connection
			// grow-only buffers; the Handler contract (no retention of
			// the request buffer) is what makes the reuse sound.
			var rbuf, wbuf []byte
			for {
				req, _, err := readFrameInto(conn, &rbuf)
				if err != nil {
					return
				}
				resp, err := h(req)
				if err != nil {
					// Surface the handler error as an error frame and
					// drop the connection: handler errors mean the
					// process is unavailable (crashed mid-call), and
					// closing forces the client to redial — reaching a
					// restarted process instead of this stale one.
					writeFrame(conn, 1, []byte(err.Error()))
					return
				}
				wbuf = appendFrame(wbuf[:0], 0, resp)
				if _, err := conn.Write(wbuf); err != nil {
					return
				}
				if cap(wbuf) > maxRetainedFrameBuf {
					wbuf = nil
				}
			}
		}()
	}
}

// Unlisten implements Network.
func (t *TCP) Unlisten(addr string) {
	t.mu.Lock()
	l := t.listeners[addr]
	delete(t.listeners, addr)
	t.mu.Unlock()
	if l != nil {
		l.ln.Close()
	}
}

// tcpConn is one pooled client connection. The write and read staging
// buffers are cached per connection: with a stateless binary envelope
// and value stream, these buffers are the only per-message transport
// cost left, and they live exactly where a per-connection encoder
// cache would have. Both are reset on redial: a fresh connection starts with no
// inherited state, the same discipline a per-connection encoder cache
// would need.
type tcpConn struct {
	mu   sync.Mutex
	conn net.Conn
	wbuf []byte // frame staging for sends (header + payload, one Write)
	rbuf []byte // frame staging for responses
}

// Send implements Network. The returned response bytes are owned by
// the connection and are only valid until the next Send to the same
// address; callers that retain them must copy (the runtime decodes the
// reply — copying every field — before the next send can happen).
func (t *TCP) Send(addr string, req []byte) ([]byte, error) {
	t.mu.Lock()
	c := t.conns[addr]
	if c == nil {
		c = &tcpConn{}
		t.conns[addr] = c
	}
	t.mu.Unlock()

	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn == nil {
		conn, err := net.DialTimeout("tcp", addr, t.DialTimeout)
		if err != nil {
			return nil, fmt.Errorf("%w: %s: %v", ErrUnavailable, addr, err)
		}
		c.conn = conn
	}
	resp, kind, err := c.roundTrip(req)
	if err != nil {
		// The pooled connection may be stale (server restarted): redial
		// once before giving up. Redial drops the cached buffers along
		// with the socket — per-connection state does not outlive the
		// connection.
		c.conn.Close()
		c.wbuf, c.rbuf = nil, nil
		conn, derr := net.DialTimeout("tcp", addr, t.DialTimeout)
		if derr != nil {
			c.conn = nil
			return nil, fmt.Errorf("%w: %s: %v", ErrUnavailable, addr, derr)
		}
		c.conn = conn
		resp, kind, err = c.roundTrip(req)
		if err != nil {
			c.conn.Close()
			c.conn = nil
			c.wbuf, c.rbuf = nil, nil
			return nil, fmt.Errorf("%w: %s: %v", ErrUnavailable, addr, err)
		}
	}
	if kind == 1 {
		return nil, fmt.Errorf("transport: remote handler: %s", resp)
	}
	return resp, nil
}

func (c *tcpConn) roundTrip(req []byte) (resp []byte, kind byte, err error) {
	c.wbuf = appendFrame(c.wbuf[:0], 0, req)
	if _, err := c.conn.Write(c.wbuf); err != nil {
		return nil, 0, err
	}
	return readFrameInto(c.conn, &c.rbuf)
}

// Frame format: 4-byte little-endian length, 1-byte kind (0 = data,
// 1 = handler error), payload.
const (
	frameHdrSize = 5
	maxFrame     = 64 << 20
	// maxRetainedFrameBuf bounds what a connection's staging buffers
	// keep between frames; an occasional giant frame must not pin its
	// capacity on an idle connection.
	maxRetainedFrameBuf = 1 << 20
)

// appendFrame stages header and payload contiguously into buf, so a
// frame goes out in one Write with no per-frame allocation.
func appendFrame(buf []byte, kind byte, p []byte) []byte {
	var hdr [frameHdrSize]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(p)))
	hdr[4] = kind
	buf = append(buf, hdr[:]...)
	return append(buf, p...)
}

func writeFrame(w io.Writer, kind byte, p []byte) error {
	_, err := w.Write(appendFrame(nil, kind, p))
	return err
}

// readFrameInto reads one frame, staging it in *buf (grown as needed
// and written back for reuse). The returned payload aliases *buf and
// is only valid until the next call with the same buffer.
func readFrameInto(r io.Reader, buf *[]byte) ([]byte, byte, error) {
	b := *buf
	if cap(b) < frameHdrSize {
		b = make([]byte, frameHdrSize, 4096)
	}
	hdr := b[:frameHdrSize]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, 0, err
	}
	n := int(binary.LittleEndian.Uint32(hdr))
	if n > maxFrame {
		return nil, 0, errors.New("transport: oversized frame")
	}
	kind := hdr[4]
	if cap(b) < frameHdrSize+n {
		nb := make([]byte, frameHdrSize+n)
		copy(nb, hdr)
		b = nb
	}
	p := b[frameHdrSize : frameHdrSize+n]
	if _, err := io.ReadFull(r, p); err != nil {
		return nil, 0, err
	}
	if cap(b) <= maxRetainedFrameBuf {
		*buf = b
	} else {
		*buf = nil
	}
	return p, kind, nil
}

func readFrame(r io.Reader) ([]byte, error) {
	var buf []byte
	p, _, err := readFrameInto(r, &buf)
	return p, err
}

// Close shuts down all listeners and pooled connections.
func (t *TCP) Close() {
	t.mu.Lock()
	defer t.mu.Unlock()
	for addr, l := range t.listeners {
		l.ln.Close()
		delete(t.listeners, addr)
	}
	for addr, c := range t.conns {
		c.mu.Lock()
		if c.conn != nil {
			c.conn.Close()
		}
		c.mu.Unlock()
		delete(t.conns, addr)
	}
}
