package testbed

import (
	"bufio"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
)

// WorkerEnv is the environment marker the proc sweep backend sets on its
// subprocesses. `xrperf worker` serves regardless; test binaries hook
// MaybeServeWorker into TestMain so the re-executed binary becomes a
// worker instead of re-running the test suite.
const WorkerEnv = "XRPERF_PROC_WORKER"

// ProtocolVersion identifies the wire protocol of this binary: the
// 4-byte-length-prefixed framing, the JSON handshake, and the
// WireBatch/WireBatchResult message schema. Version 2 replaced the
// per-request round trips of version 1 with batched, pipelined frames
// and a per-connection choice of JSON or binary batch frames; version 3
// dropped the choice, so every frame after the handshake is binary.
// Every worker — subprocess or serve node — announces it in its
// handshake so a dispatcher built against an incompatible frame layout
// is rejected before any work is exchanged. Bump it on any incompatible
// frame or message change.
const ProtocolVersion = 3

// MaxFrameBytes bounds a single protocol frame; larger length prefixes
// indicate a corrupt or hostile stream and are rejected.
const MaxFrameBytes = 8 << 20

// ErrFrame indicates a malformed protocol frame.
var ErrFrame = errors.New("testbed: bad protocol frame")

// WireBatch is one framed batch of requests: the dispatcher tags each
// batch with the grid offset of its first request so results can be
// matched to their window slot and merged in request order. Reqs are
// contiguous in grid order, so request i of the batch is grid point
// ID+i.
type WireBatch struct {
	// ID is the dispatcher-chosen batch tag (the grid offset of Reqs[0]).
	ID int `json:"id"`
	// Reqs are the work units, contiguous in grid order.
	Reqs []Request `json:"reqs"`
}

// WireItem is one request's result within a batch.
type WireItem struct {
	// M is the result when Err is empty.
	M Measurement `json:"m"`
	// Err carries a request-level failure; the worker stays alive and
	// the batch's other items are unaffected.
	Err string `json:"err,omitempty"`
}

// WireBatchResult is one framed batch response. Items answer the
// batch's requests positionally.
type WireBatchResult struct {
	// ID echoes the batch tag.
	ID int `json:"id"`
	// Items answer Reqs positionally.
	Items []WireItem `json:"items,omitempty"`
}

// ErrVersionMismatch indicates a peer whose protocol or physics version
// differs from this binary's.
var ErrVersionMismatch = errors.New("testbed: version mismatch")

// WireHello is the handshake frame a worker writes once per connection
// (serve nodes over TCP, worker subprocesses on stdout), before reading
// any request: the worker's wire-protocol version and its measurement
// semantics (PhysicsVersion). The dispatcher checks the versions against
// its own binary — a node built from different physics would return
// measurements that silently break the byte-identical-across-backends
// contract, so mismatched nodes are rejected up front, not discovered as
// wrong numbers later. The hello is JSON, and unknown keys are ignored;
// every frame after it is binary.
type WireHello struct {
	// Protocol is the worker's wire-protocol version.
	Protocol int `json:"proto"`
	// Physics is the worker's testbed.PhysicsVersion.
	Physics int `json:"physics"`
	// Service names what the peer serves: empty for a worker-fleet node
	// (the original service, kept empty for wire compatibility),
	// ServiceJobs for a job server. Version checks ignore it; clients
	// use it to fail fast when dialing the wrong kind of endpoint.
	Service string `json:"svc,omitempty"`
}

// Hello returns this binary's handshake frame.
func Hello() WireHello {
	return WireHello{Protocol: ProtocolVersion, Physics: PhysicsVersion}
}

// Check validates a peer's handshake against this binary.
func (h WireHello) Check() error {
	if h.Protocol != ProtocolVersion || h.Physics != PhysicsVersion {
		return fmt.Errorf("%w: node speaks protocol %d / physics %d, this binary speaks %d / %d",
			ErrVersionMismatch, h.Protocol, h.Physics, ProtocolVersion, PhysicsVersion)
	}
	return nil
}

// WriteRawFrame sends frame, whose first 4 bytes are reserved for the
// length prefix, in one Write: it fills in the big-endian length of
// what follows them.
func WriteRawFrame(w io.Writer, frame []byte) error {
	if n := len(frame) - 4; n > MaxFrameBytes {
		return fmt.Errorf("%w: %d bytes exceeds limit %d", ErrFrame, n, MaxFrameBytes)
	}
	binary.BigEndian.PutUint32(frame, uint32(len(frame)-4))
	_, err := w.Write(frame)
	return err
}

// maxExactFrameRead caps what ReadRawFrame allocates ahead of the bytes
// that arrive. Batch frames sit far below it, so each is read into one
// buffer sized from its declared length; a hostile length on a short
// stream wastes at most this much.
const maxExactFrameRead = 64 << 10

// ReadRawFrame reads one length-prefixed payload. A clean EOF before the
// first header byte returns io.EOF; EOF mid-frame returns
// io.ErrUnexpectedEOF.
func ReadRawFrame(r io.Reader) ([]byte, error) {
	var head [4]byte
	if _, err := io.ReadFull(r, head[:]); err != nil {
		if errors.Is(err, io.EOF) {
			return nil, io.EOF
		}
		return nil, err
	}
	n := binary.BigEndian.Uint32(head[:])
	if n > MaxFrameBytes {
		return nil, fmt.Errorf("%w: declared length %d exceeds limit %d", ErrFrame, n, MaxFrameBytes)
	}
	// The payload starts at the declared length, capped at
	// maxExactFrameRead, and past that grows only as bytes arrive: a
	// typical frame costs one allocation of exactly its size, and a
	// hostile length on a short stream at most maxExactFrameRead.
	size := int(n)
	payload := make([]byte, 0, min(size, maxExactFrameRead))
	for len(payload) < size {
		if len(payload) == cap(payload) {
			payload = slices.Grow(payload, min(size-len(payload), len(payload)))
		}
		m, err := io.ReadFull(r, payload[len(payload):min(cap(payload), size)])
		payload = payload[:len(payload)+m]
		if errors.Is(err, io.EOF) {
			return nil, io.ErrUnexpectedEOF
		}
		if err != nil {
			return nil, err
		}
	}
	return payload, nil
}

// WriteFrame encodes v as JSON behind a 4-byte big-endian length prefix.
func WriteFrame(w io.Writer, v any) error {
	payload, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("%w: encode: %v", ErrFrame, err)
	}
	return WriteRawFrame(w, append(make([]byte, 4, 4+len(payload)), payload...))
}

// ReadFrame decodes one length-prefixed JSON frame into v. A clean EOF
// before the first header byte returns io.EOF; EOF mid-frame returns
// io.ErrUnexpectedEOF.
func ReadFrame(r io.Reader, v any) error {
	payload, err := ReadRawFrame(r)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(payload, v); err != nil {
		return fmt.Errorf("%w: decode: %v", ErrFrame, err)
	}
	return nil
}

// WriteBinaryFrame encodes v in the binary codec (codec_binary.go)
// behind the length prefix: the format of every frame after the JSON
// handshake. The frame is encoded into a pooled buffer behind the
// reserved header, so the payload is never copied out.
func WriteBinaryFrame(w io.Writer, v any) error {
	scratch := encodeBufs.Get().(*[]byte)
	frame, err := appendBinary(append((*scratch)[:0], 0, 0, 0, 0), v)
	defer releaseEncodeBuf(scratch, frame)
	if err != nil {
		return fmt.Errorf("%w: encode: %v", ErrFrame, err)
	}
	return WriteRawFrame(w, frame)
}

// ReadBinaryFrame decodes one length-prefixed binary frame into v, with
// ReadFrame's EOF semantics.
func ReadBinaryFrame(r io.Reader, v any) error {
	payload, err := ReadRawFrame(r)
	if err != nil {
		return err
	}
	if err := DecodeBinary(payload, v); err != nil {
		return fmt.Errorf("%w: decode: %v", ErrFrame, err)
	}
	return nil
}

// Serve runs the worker loop on a fresh executor: write the handshake,
// then answer framed request batches from r until EOF, writing framed
// results to w in arrival order. It is the stdin/stdout entry point of
// the proc backend; network serve nodes run the same loop per
// connection via ServeListener, sharing one executor across
// connections.
func Serve(r io.Reader, w io.Writer) error {
	return NewExecutor(nil).ServeFrames(r, w)
}

// ServeFrames runs the transport-agnostic worker loop on the executor:
// write the JSON handshake frame, then answer binary WireBatch frames
// until EOF. Request-level failures (bad trials, invalid scenario) are
// reported per item and do not kill the loop; protocol-level failures
// (corrupt frame, broken pipe) return an error. The hidden physics is
// deterministic, so a worker's observations for seeded requests match
// any other process's bit for bit — which is what lets one serve loop
// back pipes and sockets interchangeably.
//
//xrlint:allow ctxfirst -- serve loop ends on transport EOF/close, not ctx; dispatchers cancel by closing the conn
func (e *Executor) ServeFrames(r io.Reader, w io.Writer) error {
	br := bufio.NewReader(r)
	bw := bufio.NewWriter(w)
	if err := WriteFrame(bw, Hello()); err != nil {
		return fmt.Errorf("worker hello: %w", err)
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("worker hello: %w", err)
	}
	for {
		var b WireBatch
		if err := ReadBinaryFrame(br, &b); err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			return fmt.Errorf("worker read: %w", err)
		}
		res := WireBatchResult{ID: b.ID, Items: e.DoBatch(context.Background(), b.Reqs)}
		if err := WriteBinaryFrame(bw, res); err != nil {
			return fmt.Errorf("worker write: %w", err)
		}
		if err := bw.Flush(); err != nil {
			return fmt.Errorf("worker flush: %w", err)
		}
	}
}

// MaybeServeWorker turns the current process into a measurement worker —
// serving the wire protocol on stdin/stdout until EOF, then exiting —
// when WorkerEnv is set. Binaries that may be re-executed by the proc
// backend (most importantly test binaries, whose TestMain should call
// this before m.Run) use it to answer the backend instead of running
// their normal main path. It returns immediately when the marker is
// absent.
func MaybeServeWorker() {
	if os.Getenv(WorkerEnv) == "" {
		return
	}
	if err := Serve(os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "xrperf worker:", err)
		os.Exit(1)
	}
	os.Exit(0)
}
