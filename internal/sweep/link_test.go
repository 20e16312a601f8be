package sweep

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
	"time"

	"repro/internal/testbed"
)

// pipeStream is the dispatcher's end of an in-memory worker stream:
// reads come from the peer's writes, and Close closes both directions.
type pipeStream struct {
	*io.PipeReader
	w *io.PipeWriter
}

func (s pipeStream) Write(b []byte) (int, error) { return s.w.Write(b) }

func (s pipeStream) Close() error {
	_ = s.w.Close()
	return s.PipeReader.Close()
}

// TestOpenLink pins the one handshake both backends run: bounded by its
// timeout, abandoned on cancelation, and classifying what the peer said
// — a version mismatch is final, a garbled or broken hello is a
// retryable worker failure described by the died hook when there is one.
// A link that failed to open has closed its stream.
func TestOpenLink(t *testing.T) {
	const timeout = 50 * time.Millisecond
	skew := testbed.Hello()
	skew.Physics++
	cases := []struct {
		name string
		// peer plays the worker on its end of the stream; it returns
		// once it has said its piece.
		peer   func(w io.WriteCloser)
		died   func(op string, err error) error
		cancel bool
		// check inspects openLink's error; nil means the link opens.
		check func(t *testing.T, err error)
	}{
		{
			name: "hello",
			peer: func(w io.WriteCloser) { _ = testbed.WriteFrame(w, testbed.Hello()) },
		},
		{
			name: "silent peer",
			peer: func(io.WriteCloser) {},
			check: func(t *testing.T, err error) {
				if !retryable(err) || !strings.Contains(err.Error(), "worker 7: handshake timed out") {
					t.Fatalf("silent peer: %v, want a retryable timeout naming the link", err)
				}
			},
		},
		{
			name:   "ctx cancel",
			peer:   func(io.WriteCloser) {},
			cancel: true,
			check: func(t *testing.T, err error) {
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("canceled handshake: %v, want context.Canceled", err)
				}
			},
		},
		{
			name: "version mismatch",
			peer: func(w io.WriteCloser) { _ = testbed.WriteFrame(w, skew) },
			check: func(t *testing.T, err error) {
				if !errors.Is(err, testbed.ErrVersionMismatch) || retryable(err) {
					t.Fatalf("mismatch: %v, want a final ErrVersionMismatch", err)
				}
				if !strings.Contains(err.Error(), "worker 7 rejected") {
					t.Fatalf("mismatch error does not name the link: %v", err)
				}
			},
		},
		{
			name: "garbage frame",
			peer: func(w io.WriteCloser) { _, _ = w.Write([]byte("\x00\x00\x00\x05hello")) },
			check: func(t *testing.T, err error) {
				if !retryable(err) || !strings.Contains(err.Error(), "worker 7: handshake failed") {
					t.Fatalf("garbage hello: %v, want a retryable handshake failure", err)
				}
			},
		},
		{
			name: "peer exits",
			peer: func(w io.WriteCloser) { _ = w.Close() },
			died: func(op string, err error) error {
				return fmt.Errorf("worker 7 died mid-shard (%s failed; exit status 9); stderr: boom", op)
			},
			check: func(t *testing.T, err error) {
				if !retryable(err) || !strings.Contains(err.Error(), "handshake failed; exit status 9") ||
					!strings.Contains(err.Error(), "stderr: boom") {
					t.Fatalf("exited peer: %v, want the died hook's exit status and stderr tail", err)
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			toLink, fromPeer := io.Pipe()
			toPeer, fromLink := io.Pipe()
			go tc.peer(fromPeer)
			go func() { _, _ = io.Copy(io.Discard, toPeer) }()

			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			if tc.cancel {
				time.AfterFunc(timeout/5, cancel)
			}
			start := time.Now()
			l, err := openLink(ctx, "worker 7", pipeStream{toLink, fromLink}, tc.died, timeout)
			if elapsed := time.Since(start); elapsed > 10*timeout {
				t.Fatalf("openLink took %v with a %v timeout", elapsed, timeout)
			}
			if tc.check == nil {
				if err != nil {
					t.Fatal(err)
				}
				l.destroy()
				return
			}
			if l != nil || err == nil {
				t.Fatalf("openLink succeeded, want an error")
			}
			tc.check(t, err)
			// The stream is closed: the peer can no longer write to it.
			if _, err := fromPeer.Write([]byte{0}); !errors.Is(err, io.ErrClosedPipe) {
				t.Fatalf("peer write after a failed open: %v, want io.ErrClosedPipe", err)
			}
		})
	}
}
