package repl

import (
	"io"
	"net"
	"sync"
)

// FaultMode selects what a FaultConn does to the byte stream when its
// trigger offset is reached.
type FaultMode int

const (
	// FaultTruncate cuts the connection exactly at the offset: the
	// reader sees the prefix, then an unexpected EOF.
	FaultTruncate FaultMode = iota
	// FaultCorrupt flips a bit in the byte at the offset and lets the
	// stream continue — the damage must be caught by checksums.
	FaultCorrupt
	// FaultStall delivers the prefix and then blocks reads forever
	// (half-dead link): only a reader-side timeout gets out.
	FaultStall
)

func (m FaultMode) String() string {
	switch m {
	case FaultTruncate:
		return "truncate"
	case FaultCorrupt:
		return "corrupt"
	case FaultStall:
		return "stall"
	}
	return "unknown"
}

// FaultConn wraps a net.Conn and injects one read-side fault at an
// exact byte offset of the inbound stream. The replication fault sweep
// dials the primary through it and asserts the follower recovers to
// bit-identical answers whatever the offset hits: a frame header, a
// snapshot chunk, a record payload.
type FaultConn struct {
	net.Conn
	mode FaultMode
	at   int64 // inbound byte offset the fault fires at

	mu      sync.Mutex
	off     int64 // inbound bytes delivered so far
	tripped bool

	closed    chan struct{}
	closeOnce sync.Once
}

// NewFaultConn arms a fault at inbound byte offset at of conn.
func NewFaultConn(conn net.Conn, mode FaultMode, at int64) *FaultConn {
	return &FaultConn{Conn: conn, mode: mode, at: at, closed: make(chan struct{})}
}

// Close unblocks a stalled read and closes the underlying connection.
func (c *FaultConn) Close() error {
	c.closeOnce.Do(func() { close(c.closed) })
	return c.Conn.Close()
}

// Read delivers inbound bytes, firing the armed fault when the stream
// offset crosses the trigger.
func (c *FaultConn) Read(p []byte) (int, error) {
	c.mu.Lock()
	if c.tripped {
		switch c.mode {
		case FaultStall:
			c.mu.Unlock()
			<-c.closed
			return 0, net.ErrClosed
		case FaultTruncate:
			c.mu.Unlock()
			return 0, io.ErrUnexpectedEOF
		}
		// FaultCorrupt already did its damage: pass through.
		c.mu.Unlock()
		return c.Conn.Read(p)
	}
	if headroom := c.at - c.off; headroom == 0 {
		c.tripped = true
		switch c.mode {
		case FaultTruncate:
			c.mu.Unlock()
			_ = c.Conn.Close()
			return 0, io.ErrUnexpectedEOF
		case FaultStall:
			c.mu.Unlock()
			<-c.closed
			return 0, net.ErrClosed
		}
		// FaultCorrupt: read on, then flip a bit in the trigger byte.
		c.mu.Unlock()
		n, err := c.Conn.Read(p)
		if n > 0 {
			p[0] ^= 0x80
		}
		return n, err
	} else if headroom > 0 && int64(len(p)) > headroom {
		// Stop the read at the trigger so the fault fires on an exact
		// byte boundary.
		p = p[:headroom]
	}
	c.mu.Unlock()
	n, err := c.Conn.Read(p)
	c.mu.Lock()
	c.off += int64(n)
	c.mu.Unlock()
	return n, err
}
