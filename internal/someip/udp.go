package someip

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
)

// UDPConn is a SOME/IP binding over a real UDP socket. It serves the
// same role as Conn does over the simulated network: marshal on send,
// decode on receive, with optional DEAR tag-trailer support. It
// implements Endpoint, which is what makes the protocol layer
// substrate-independent: an ara runtime constructed over a UDPConn runs
// the tagged binding against real networks (see ara.NewUDPRuntime),
// while deterministic experiments use the simulated transport.
//
// Handlers run on the connection's reader goroutine, so a UDPConn is
// not an endpoint an ara runtime sees directly: ara.NewUDPRuntime wraps
// it to hand every message to the kernel goroutine first.
type UDPConn struct {
	pc     *net.UDPConn
	tagged bool

	mu      sync.Mutex
	onMsg   func(src Addr, m *Message)
	started bool
	closed  atomic.Bool
	done    chan struct{}
}

// ListenUDP binds a SOME/IP UDP endpoint. addr uses net.ListenUDP
// semantics (e.g. "127.0.0.1:0" for an ephemeral loopback port).
func ListenUDP(addr string, tagged bool) (*UDPConn, error) {
	udpAddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("someip: resolve %q: %w", addr, err)
	}
	pc, err := net.ListenUDP("udp", udpAddr)
	if err != nil {
		return nil, fmt.Errorf("someip: listen %q: %w", addr, err)
	}
	return &UDPConn{
		pc:     pc,
		tagged: tagged,
		done:   make(chan struct{}),
	}, nil
}

// Addr returns the bound address in its substrate-specific form.
func (c *UDPConn) Addr() *net.UDPAddr { return c.pc.LocalAddr().(*net.UDPAddr) }

// LocalAddr returns the bound address.
func (c *UDPConn) LocalAddr() Addr { return c.Addr() }

// OnMessage installs the receive handler and starts the read loop.
// Handlers run on the connection's reader goroutine; src is always a
// *net.UDPAddr. Unlike Conn's, every message (tag included) is freshly
// decoded and copied out of the read buffer, so a handler may keep it.
func (c *UDPConn) OnMessage(fn func(src Addr, m *Message)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.onMsg = fn
	if !c.started {
		c.started = true
		go c.readLoop()
	}
}

// resolveUDP coerces a transport address to a *net.UDPAddr, resolving
// foreign-substrate addresses via their string form so that statically
// configured peers ("127.0.0.1:40001") can be passed through.
func resolveUDP(dst Addr) (*net.UDPAddr, error) {
	if ua, ok := dst.(*net.UDPAddr); ok {
		return ua, nil
	}
	if dst.Network() == "udp" {
		return net.ResolveUDPAddr("udp", dst.String())
	}
	return nil, fmt.Errorf("someip: UDPConn.Send to non-UDP address %v (%s)", dst, dst.Network())
}

// Send marshals and transmits the message. In an untagged binding any
// Tag on the message is ignored. dst must be a UDP address.
func (c *UDPConn) Send(dst Addr, m *Message) error {
	if c.closed.Load() {
		return errors.New("someip: send on closed UDPConn")
	}
	udpDst, err := resolveUDP(dst)
	if err != nil {
		return err
	}
	if _, err := c.pc.WriteToUDP(outgoing(m, c.tagged).Marshal(), udpDst); err != nil {
		return fmt.Errorf("someip: send: %w", err)
	}
	return nil
}

// Close shuts the socket down and stops the read loop.
func (c *UDPConn) Close() error {
	if c.closed.Swap(true) {
		return nil
	}
	err := c.pc.Close()
	c.mu.Lock()
	started := c.started
	c.mu.Unlock()
	if started {
		<-c.done
	}
	return err
}

func (c *UDPConn) readLoop() {
	defer close(c.done)
	buf := make([]byte, 65536)
	for {
		n, src, err := c.pc.ReadFromUDP(buf)
		if err != nil {
			return // closed
		}
		m, err := Unmarshal(buf[:n])
		if err == nil {
			err = incoming(m, c.tagged, nil)
		}
		if err != nil {
			continue // dropped
		}
		c.mu.Lock()
		onMsg := c.onMsg
		c.mu.Unlock()
		if onMsg != nil {
			onMsg(src, m)
		}
	}
}
