package server

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"

	"repro/internal/job"
	"repro/internal/testbed"
)

// ErrBusy reports an admission-control rejection: the server's bounded
// job queue was full when the job arrived. The job never ran; retry
// later.
var ErrBusy = errors.New("server busy")

// dial connects to a job server and performs the handshake, returning
// the connection and a buffered reader positioned after the hello
// frame. The context governs the dial and, via AfterFunc, aborts the
// whole exchange when canceled; the caller owns closing both conn and
// the returned stop func.
func dial(ctx context.Context, addr string) (net.Conn, *bufio.Reader, func() bool, error) {
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("submit: %w", err)
	}
	stop := context.AfterFunc(ctx, func() { _ = conn.Close() })
	br := bufio.NewReader(conn)
	h, err := testbed.ReadHello(br)
	if err != nil {
		stop()
		_ = conn.Close()
		return nil, nil, nil, fmt.Errorf("submit: %s: %w", addr, err)
	}
	if h.Service != testbed.ServiceJobs {
		stop()
		_ = conn.Close()
		return nil, nil, nil, fmt.Errorf("submit: %s is not a job server (it serves %q — an `xrperf serve` fleet node answers measurements, not jobs; dial an `xrperf server` instead)",
			addr, h.Service)
	}
	return conn, br, stop, nil
}

// Submit sends one job to the server at addr and copies the streamed
// output chunks to out in arrival order; their concatenation is
// byte-identical to the one-shot CLI's stdout for the same job. A
// job-level failure returns an error with the server's exact message —
// for an invalid job, the same text the one-shot CLI would print — and
// a busy rejection returns an error wrapping ErrBusy. Canceling ctx
// closes the connection, which aborts the job server-side.
func Submit(ctx context.Context, addr string, j job.Job, out io.Writer) error {
	conn, br, stop, err := dial(ctx, addr)
	if err != nil {
		return err
	}
	defer stop()
	defer conn.Close()
	payload, err := json.Marshal(j)
	if err != nil {
		return fmt.Errorf("submit: encode job: %w", err)
	}
	if err := testbed.WriteFrame(conn, testbed.WireJob{Proto: testbed.JobProtocolVersion, Op: testbed.JobOpRun, Job: payload}); err != nil {
		return fmt.Errorf("submit: %w", err)
	}
	for {
		var r testbed.WireResult
		if err := testbed.ReadBinaryFrame(br, &r); err != nil {
			if ctx.Err() != nil {
				return fmt.Errorf("submit: %w", ctx.Err())
			}
			return fmt.Errorf("submit: server closed the stream: %w", err)
		}
		switch r.Kind {
		case testbed.ResultChunk:
			if _, err := io.WriteString(out, r.Chunk); err != nil {
				return err
			}
		case testbed.ResultDone:
			return nil
		case testbed.ResultBusy:
			return fmt.Errorf("%w: %s", ErrBusy, r.Err)
		case testbed.ResultErr:
			return errors.New(r.Err)
		default:
			return fmt.Errorf("submit: unexpected result frame %q", r.Kind)
		}
	}
}

// QueryStats asks the server at addr for its introspection snapshot.
func QueryStats(ctx context.Context, addr string) (Stats, error) {
	conn, br, stop, err := dial(ctx, addr)
	if err != nil {
		return Stats{}, err
	}
	defer stop()
	defer conn.Close()
	if err := testbed.WriteFrame(conn, testbed.WireJob{Proto: testbed.JobProtocolVersion, Op: testbed.JobOpStats}); err != nil {
		return Stats{}, fmt.Errorf("stats: %w", err)
	}
	var r testbed.WireResult
	if err := testbed.ReadBinaryFrame(br, &r); err != nil {
		return Stats{}, fmt.Errorf("stats: %w", err)
	}
	switch r.Kind {
	case testbed.ResultStats:
		var st Stats
		if err := json.Unmarshal(r.Stats, &st); err != nil {
			return Stats{}, fmt.Errorf("stats: decode: %w", err)
		}
		return st, nil
	case testbed.ResultErr:
		return Stats{}, errors.New(r.Err)
	default:
		return Stats{}, fmt.Errorf("stats: unexpected result frame %q", r.Kind)
	}
}
