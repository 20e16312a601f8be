package testbed

import (
	"bufio"
	"context"
	"errors"
	"net"
	"strings"
	"testing"
	"time"
)

func TestHelloCheck(t *testing.T) {
	if err := Hello().Check(); err != nil {
		t.Fatalf("own handshake must validate: %v", err)
	}
	for _, h := range []WireHello{
		{Protocol: ProtocolVersion + 1, Physics: PhysicsVersion},
		{Protocol: ProtocolVersion, Physics: PhysicsVersion + 1},
		{Protocol: 1, Physics: PhysicsVersion}, // a v1 binary's hello
		{Protocol: 2, Physics: PhysicsVersion}, // a v2 binary's hello: JSON or binary batches
		{},
	} {
		err := h.Check()
		if !errors.Is(err, ErrVersionMismatch) {
			t.Fatalf("Check(%+v) = %v, want ErrVersionMismatch", h, err)
		}
		if !strings.Contains(err.Error(), "protocol") || !strings.Contains(err.Error(), "physics") {
			t.Fatalf("mismatch error not descriptive: %v", err)
		}
	}
}

// startNode runs a serve node on a loopback listener for the test's
// lifetime and returns its address.
func startNode(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- ServeListener(ctx, ln, nil) }()
	t.Cleanup(func() {
		cancel()
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("ServeListener: %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Error("ServeListener did not return after cancel")
		}
	})
	return ln.Addr().String()
}

// TestServeListenerHandshakeAndMeasure drives the node end of the
// network protocol with a raw client over two connections in turn: each
// opens with a valid handshake, good requests answer with the bench's
// exact measurement, request-level failures answer in-band as per-item
// errors without killing the connection, and a second batch on the same
// connection works (the executor is shared, not consumed).
func TestServeListenerHandshakeAndMeasure(t *testing.T) {
	addr := startNode(t)
	good := workerRequest(t, 4)
	bad := good
	bad.Trials = 0
	want, err := NewBench(0).Do(good)
	if err != nil {
		t.Fatal(err)
	}

	for c := 0; c < 2; c++ {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		br := bufio.NewReader(conn)
		hello, err := ReadHello(br)
		if err != nil {
			t.Fatalf("connection %d handshake: %v", c, err)
		}
		if hello != Hello() {
			t.Fatalf("connection %d hello = %+v", c, hello)
		}
		for round := 0; round < 2; round++ {
			if err := WriteBinaryFrame(conn, WireBatch{ID: round, Reqs: []Request{good, bad, good}}); err != nil {
				t.Fatal(err)
			}
			var res WireBatchResult
			if err := ReadBinaryFrame(br, &res); err != nil {
				t.Fatalf("connection %d batch %d: %v", c, round, err)
			}
			if res.ID != round || len(res.Items) != 3 {
				t.Fatalf("connection %d batch %d = %+v", c, round, res)
			}
			for i, item := range res.Items {
				if i == 1 {
					if !strings.Contains(item.Err, "trial count") {
						t.Fatalf("bad request item = %+v", item)
					}
					continue
				}
				if item.Err != "" || item.M != want {
					t.Fatalf("connection %d batch %d item %d = %+v, want %+v", c, round, i, item, want)
				}
			}
		}
		conn.Close()
	}
}

// TestServeListenerCancelClosesConnections pins prompt shutdown: a node
// with an attached, idle dispatcher connection must still return as soon
// as its context is canceled — the live connection is closed, not
// drained.
func TestServeListenerCancelClosesConnections(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- ServeListener(ctx, ln, nil) }()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := ReadHello(bufio.NewReader(conn)); err != nil {
		t.Fatal(err)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("ServeListener after cancel: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("node held hostage by an idle connection")
	}
}
