package server

import (
	"context"
	"net"
	"net/http"
	"sync"
)

// heldConn is an accepted TCP connection whose writes a lineWriter can
// gather into one. net/http writes a response through buffers of its
// own — 2 KiB ahead of the chunk framing, 4 KiB ahead of the socket —
// so a 21 KB body it is handed in one Write leaves in two or three
// write(2) calls. Between hold and send the bytes net/http writes
// collect in a pooled buffer instead, and send hands them to the
// socket in one write; outside a hold every Write goes straight
// through. The buffer is taken by hold and returned by send, so an
// idle keep-alive connection keeps none.
//
// The embedded *net.TCPConn still provides ReadFrom (sendfile) and
// CloseWrite. net/http writes a connection from the goroutine that
// serves its requests, which is also the one that holds and sends, so
// the fields need no lock.
type heldConn struct {
	*net.TCPConn
	writes *counter // topod_socket_writes_total
	held   *[]byte  // the pooled buffer, between hold and send
	err    error    // a failed send; every later Write returns it
}

// heldBufs are the buffers of held connections. The flush contract
// bounds what one hold collects: a batch of flushBytes and one line,
// or a sized answer under flushBytes, plus a trailer and the headers.
var heldBufs = sync.Pool{New: func() any {
	b := make([]byte, 0, flushBytes+8192)
	return &b
}}

func (c *heldConn) Write(p []byte) (int, error) {
	switch {
	case c.err != nil:
		return 0, c.err
	case c.held != nil:
		*c.held = append(*c.held, p...)
		return len(p), nil
	}
	c.writes.Add(1)
	return c.TCPConn.Write(p)
}

// hold collects the connection's writes until send. On a nil c — a
// response that is not on a held connection — it does nothing.
func (c *heldConn) hold() {
	if c != nil && c.held == nil {
		c.held = heldBufs.Get().(*[]byte)
	}
}

// send ends a hold: what was written since goes to the socket in one
// write. A failed send closes the connection, as a response cut at an
// unknown byte cannot go on, and its error is the connection's from
// then on. On a nil c it does nothing.
func (c *heldConn) send() error {
	if c == nil || c.held == nil {
		return nil
	}
	b := c.held
	c.held = nil
	if len(*b) > 0 && c.err == nil {
		c.writes.Add(1)
		if _, err := c.TCPConn.Write(*b); err != nil {
			c.err = err
			c.TCPConn.Close()
		}
	}
	*b = (*b)[:0]
	heldBufs.Put(b)
	return c.err
}

// heldConnKey is the request context key of a request's heldConn.
type heldConnKey struct{}

// connOf returns the held connection r arrived on, or nil when it did
// not arrive through Server.Listener (an httptest.ResponseRecorder, a
// handler called in process).
func connOf(r *http.Request) *heldConn {
	c, _ := r.Context().Value(heldConnKey{}).(*heldConn)
	return c
}

// Listener returns ln with each accepted TCP connection wrapped so
// that the NDJSON streams can hold it, and sets hs.ConnContext so that
// a request finds its connection. topod serves through it, and so do
// the tests, over one code path: a response off such a connection
// sends as it writes.
func (s *Server) Listener(hs *http.Server, ln net.Listener) net.Listener {
	hs.ConnContext = func(ctx context.Context, c net.Conn) context.Context {
		if hc, ok := c.(*heldConn); ok {
			return context.WithValue(ctx, heldConnKey{}, hc)
		}
		return ctx
	}
	return heldListener{Listener: ln, writes: &s.metrics.socketWrites}
}

type heldListener struct {
	net.Listener
	writes *counter
}

func (l heldListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if tc, ok := c.(*net.TCPConn); ok {
		return &heldConn{TCPConn: tc, writes: l.writes}, nil
	}
	return c, err
}
