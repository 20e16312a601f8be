// Package sweeptest holds test harnesses for the sweep backends. It
// imports only testbed, never sweep, so sweep's own in-package tests can
// use it as well as the server and CLI suites.
package sweeptest

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/testbed"
)

// This file is the chaos harness: fault injection on the wire, where
// distributed sweeps actually fail. ChaosProxy sits in front of a real
// serve node and corrupts the transport — delayed frames, connections
// killed after N frames, half-written frames — so tests can pin that the
// dispatcher's re-dispatch and quarantine machinery preserves
// byte-identical output under node death and mid-stream disconnect.

// ChaosConfig parameterizes injected transport faults.
type ChaosConfig struct {
	// CrashAfterFrames kills a proxied connection after this many
	// node→client frames (the handshake hello counts as the first).
	// 0 disables crashing.
	CrashAfterFrames int
	// CrashMidFrame writes the frame header and half the payload before
	// killing the connection, so the peer sees a truncated frame instead
	// of a clean close.
	CrashMidFrame bool
	// MaxCrashes bounds the total crashes injected across all
	// connections; once spent, the proxy passes traffic through
	// untouched. Negative means unlimited.
	MaxCrashes int
	// FrameDelay sleeps before relaying each node→client answer frame.
	// The handshake (first) frame passes undelayed: the model is a slow
	// worker behind a healthy connection, not a slow network.
	FrameDelay time.Duration
	// Hold, when non-nil, withholds every node→client answer frame until
	// it closes; the handshake passes at once. A test fronts a healthy
	// node with it (often holding on another proxy's Crashed) to order
	// that node's answers after a fault instead of racing it.
	Hold <-chan struct{}
}

// ChaosProxy is a frame-aware TCP proxy in front of one serve node. The
// dispatcher dials Addr instead of the node; client→node bytes pass
// through untouched, node→client traffic is re-framed so faults land on
// frame boundaries (or deliberately in the middle of one).
type ChaosProxy struct {
	cfg ChaosConfig
	ln  net.Listener

	crashBudget atomic.Int64
	conns       atomic.Int64
	crashes     atomic.Int64
	crashed     chan struct{}
	done        chan struct{}

	mu     sync.Mutex
	closed bool
	live   map[net.Conn]struct{}
}

// NewChaosProxy starts a proxy on a fresh loopback port forwarding to
// target. Close it when done.
func NewChaosProxy(target string, cfg ChaosConfig) (*ChaosProxy, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("sweeptest: chaos proxy listen: %w", err)
	}
	p := &ChaosProxy{cfg: cfg, ln: ln, crashed: make(chan struct{}), done: make(chan struct{}), live: make(map[net.Conn]struct{})}
	budget := int64(cfg.MaxCrashes)
	if cfg.MaxCrashes < 0 {
		budget = int64(1) << 62
	}
	p.crashBudget.Store(budget)
	go p.accept(target)
	return p, nil
}

// Addr is the proxy's dial address.
func (p *ChaosProxy) Addr() string { return p.ln.Addr().String() }

// Conns counts accepted dispatcher connections.
func (p *ChaosProxy) Conns() int { return int(p.conns.Load()) }

// Crashes counts injected connection kills.
func (p *ChaosProxy) Crashes() int { return int(p.crashes.Load()) }

// Crashed returns a channel closed at the first injected kill, so a test
// can hold the rest of a fleet back until the fault has happened.
func (p *ChaosProxy) Crashed() <-chan struct{} { return p.crashed }

// Close stops the proxy and kills every live connection.
func (p *ChaosProxy) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil
	}
	p.closed = true
	close(p.done)
	_ = p.ln.Close()
	for c := range p.live {
		_ = c.Close()
	}
	p.live = nil
	return nil
}

func (p *ChaosProxy) track(c net.Conn) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		_ = c.Close()
		return false
	}
	p.live[c] = struct{}{}
	return true
}

func (p *ChaosProxy) untrack(c net.Conn) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.closed {
		delete(p.live, c)
	}
	_ = c.Close()
}

func (p *ChaosProxy) accept(target string) {
	for {
		client, err := p.ln.Accept()
		if err != nil {
			return
		}
		p.conns.Add(1)
		go p.proxy(client, target)
	}
}

// proxy relays one dispatcher connection, injecting the configured
// faults on the node→client direction.
func (p *ChaosProxy) proxy(client net.Conn, target string) {
	defer client.Close()
	node, err := net.Dial("tcp", target)
	if err != nil {
		return
	}
	defer node.Close()
	if !p.track(client) || !p.track(node) {
		return
	}
	defer p.untrack(client)
	defer p.untrack(node)

	// Client→node: pass through untouched; a closed socket on either
	// side ends the relay.
	go func() {
		_, _ = io.Copy(node, client)
		// The node sees EOF from the dispatcher and closes; the
		// node→client loop below then ends too.
		if cw, ok := node.(interface{ CloseWrite() error }); ok {
			_ = cw.CloseWrite()
		}
	}()

	frames := 0
	var head [4]byte
	for {
		if _, err := io.ReadFull(node, head[:]); err != nil {
			return
		}
		n := binary.BigEndian.Uint32(head[:])
		if n > testbed.MaxFrameBytes {
			return
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(node, payload); err != nil {
			return
		}
		frames++
		if p.cfg.FrameDelay > 0 && frames > 1 {
			time.Sleep(p.cfg.FrameDelay)
		}
		if p.cfg.Hold != nil && frames > 1 {
			select {
			case <-p.cfg.Hold:
			case <-p.done:
				return
			}
		}
		if p.cfg.CrashAfterFrames > 0 && frames >= p.cfg.CrashAfterFrames && p.crashBudget.Add(-1) >= 0 {
			if p.crashes.Add(1) == 1 {
				close(p.crashed)
			}
			if p.cfg.CrashMidFrame {
				// Truncate inside the payload: the dispatcher reads a
				// valid header, then hits ErrUnexpectedEOF mid-frame.
				_, _ = client.Write(head[:])
				_, _ = client.Write(payload[:len(payload)/2])
			}
			return
		}
		if _, err := client.Write(head[:]); err != nil {
			return
		}
		if _, err := client.Write(payload); err != nil {
			return
		}
	}
}
