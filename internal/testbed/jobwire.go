package testbed

import (
	"encoding/json"
	"fmt"
)

// JobProtocolVersion identifies the WireJob/WireResult message family of
// the sweep-as-a-service protocol: the frames a submit client and a job
// server exchange after the WireHello handshake. It is versioned
// independently of ProtocolVersion (the measurement frames) so the fleet
// protocol and the job protocol can evolve separately; bump it on any
// incompatible job-frame change. Version 2 made every WireResult frame
// binary.
const JobProtocolVersion = 2

// ServiceJobs is the WireHello.Service value announced by a job server
// (`xrperf server`), distinguishing it from a worker-fleet node
// (`xrperf serve`, which announces the empty default). A submit client
// dialing a fleet node by mistake sees the wrong service marker and
// fails with a clear error instead of a confusing protocol breakdown.
const ServiceJobs = "jobs"

// JobsHello returns a job server's handshake frame: the same version
// pair every peer checks, plus the jobs service marker.
func JobsHello() WireHello {
	h := Hello()
	h.Service = ServiceJobs
	return h
}

// Job-frame operations.
const (
	// JobOpRun submits one job for execution; the empty op means run.
	JobOpRun = "run"
	// JobOpStats requests the server's introspection snapshot (queue
	// depth, cache counters, observed arrival/service rates) without
	// running anything.
	JobOpStats = "stats"
)

// WireJob is the one frame a client sends after the handshake: the
// job-protocol version, the requested operation, and — for run — the
// job document itself. Like the handshake it is JSON; every WireResult
// the server answers with is binary. The payload is carried opaquely
// (the job schema lives in internal/job, above this package) so the
// wire layer never constrains what a job can say.
type WireJob struct {
	// Proto is the client's JobProtocolVersion.
	Proto int `json:"proto"`
	// Op selects the operation; empty means JobOpRun.
	Op string `json:"op,omitempty"`
	// Job is the job document (internal/job.Job JSON) for run ops.
	Job json.RawMessage `json:"job,omitempty"`
}

// Check validates the client's job-protocol version against this binary.
func (j WireJob) Check() error {
	if j.Proto != JobProtocolVersion {
		return fmt.Errorf("%w: client speaks job protocol %d, this server speaks %d",
			ErrVersionMismatch, j.Proto, JobProtocolVersion)
	}
	return nil
}

// WireResult kinds: every server→client frame after the handshake is a
// WireResult, and Kind says how to interpret it.
const (
	// ResultChunk carries one chunk of the job's canonical output; the
	// client writes chunks to stdout in arrival order, and their
	// concatenation is byte-identical to the one-shot CLI's output.
	ResultChunk = "chunk"
	// ResultDone closes a successful job stream.
	ResultDone = "done"
	// ResultErr closes a failed job stream; Err carries the message,
	// which for an invalid job is the exact text the one-shot CLI would
	// print for the same spec.
	ResultErr = "err"
	// ResultBusy is the admission-control rejection (the 429 of this
	// protocol): the server's queue is full and the job was never
	// admitted. The client should retry later.
	ResultBusy = "busy"
	// ResultStats answers a JobOpStats request; Stats carries the
	// server's introspection snapshot as JSON.
	ResultStats = "stats"
)

// WireResult is one streamed server→client frame of a job exchange.
type WireResult struct {
	// Kind discriminates the frame (Result* constants).
	Kind string `json:"kind"`
	// Chunk is the output payload for ResultChunk frames.
	Chunk string `json:"chunk,omitempty"`
	// Err is the failure or rejection message for ResultErr/ResultBusy.
	Err string `json:"err,omitempty"`
	// Stats is the introspection snapshot for ResultStats frames.
	Stats json.RawMessage `json:"stats,omitempty"`
}
