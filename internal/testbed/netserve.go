package testbed

import (
	"context"
	"errors"
	"io"
	"net"
	"sync"
)

// ServeListener runs a worker-fleet node: accept connections on ln
// until ctx is canceled (or the listener fails) and answer each over the
// length-delimited frame protocol. Every connection opens with a
// handshake frame (WireHello) carrying this binary's protocol and
// physics versions, so an incompatible dispatcher rejects the node
// before any work is exchanged. Connections are served concurrently and
// share one Executor, so re-fitted model bundles are resolved once per
// node, not once per dispatcher connection. A connection-level failure
// (disconnect, corrupt frame) closes that connection only — reported
// via logf when non-nil — never the node.
// Canceling ctx closes the listener and every live connection and
// returns nil promptly — an in-flight measurement is not waited for (it
// is CPU-bound and uncancelable; its goroutine exits once its response
// write fails on the closed socket, and the dispatcher has already
// re-dispatched or abandoned the batch). ln is closed in every exit
// path.
func ServeListener(ctx context.Context, ln net.Listener, logf func(format string, args ...any)) error {
	exec := NewExecutor(nil)
	var (
		mu   sync.Mutex
		live = make(map[net.Conn]struct{})
	)
	// Every exit — cancelation or a listener failure — closes the
	// listener and all live connections, so the node never wedges with
	// dispatchers attached (they hold idle connections open across
	// calls); the connection goroutines exit once their sockets fail.
	closeAll := func() {
		_ = ln.Close()
		mu.Lock()
		defer mu.Unlock()
		for c := range live {
			_ = c.Close()
		}
	}
	stop := context.AfterFunc(ctx, closeAll)
	defer stop()
	defer closeAll()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if ctx.Err() != nil {
				return nil
			}
			return err
		}
		mu.Lock()
		live[conn] = struct{}{}
		mu.Unlock()
		go func() {
			defer func() {
				mu.Lock()
				delete(live, conn)
				mu.Unlock()
				_ = conn.Close()
			}()
			// A clean disconnect (EOF before a frame header) returns nil,
			// and a peer that vanishes mid-read surfaces as a
			// closed-connection error, treated like the pipe worker's
			// clean EOF.
			err := exec.ServeFrames(conn, conn)
			if err != nil && !errors.Is(err, net.ErrClosed) && ctx.Err() == nil && logf != nil {
				logf("connection %s: %v", conn.RemoteAddr(), err)
			}
		}()
	}
}

// ReadHello reads and validates a worker's handshake frame. It is the
// dispatcher half of the handshake every serve loop initiates: a frame
// error means the peer is not a worker at all; a version mismatch
// (ErrVersionMismatch) means it is one, built from incompatible code.
// The returned hello carries the worker's versions even when
// validation fails.
func ReadHello(r io.Reader) (WireHello, error) {
	var h WireHello
	if err := ReadFrame(r, &h); err != nil {
		return WireHello{}, err
	}
	return h, h.Check()
}
