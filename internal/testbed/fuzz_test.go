package testbed

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"reflect"
	"runtime"
	"testing"
)

// frameBytes encodes v as one wire frame for seeding.
func frameBytes(t testing.TB, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteFrame(&buf, v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzReadFrame feeds the frame decoder arbitrary byte streams: hostile
// length prefixes, truncated payloads, and garbage JSON must all surface
// as clean errors — never a panic, and never an allocation more than
// maxExactFrameRead (64 KiB) ahead of the bytes actually present.
func FuzzReadFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0})                 // truncated header
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})  // length beyond MaxFrameBytes
	f.Add([]byte{0, 0, 0, 4, '{', '}'})    // truncated payload
	f.Add([]byte{0, 0, 0, 2, 'n', 'o'})    // invalid JSON
	f.Add(frameBytes(f, Hello()))          // valid handshake frame
	f.Add(frameBytes(f, WireBatch{ID: 3})) // valid batch frame
	f.Add(frameBytes(f, WireBatchResult{ID: 3, Items: []WireItem{{Err: "x"}}}))
	// A frame declaring the maximum length (MaxFrameBytes) but delivering
	// six bytes: the over-allocation regression case.
	huge := []byte{0, 128, 0, 0, 'x', 'x', 'x', 'x', 'x', 'x'}
	f.Add(huge)
	f.Fuzz(func(t *testing.T, data []byte) {
		var v json.RawMessage
		err := ReadFrame(bytes.NewReader(data), &v)
		if err == nil {
			// A successful decode must round-trip: re-encoding the payload
			// as a frame and decoding again yields the same JSON.
			var buf bytes.Buffer
			if err := WriteFrame(&buf, v); err != nil {
				t.Fatalf("decoded frame did not re-encode: %v", err)
			}
			var v2 json.RawMessage
			if err := ReadFrame(&buf, &v2); err != nil {
				t.Fatalf("re-encoded frame did not decode: %v", err)
			}
			return
		}
		// Errors must be the protocol's own taxonomy, not raw panics
		// converted downstream: a frame error, a clean EOF, or an
		// unexpected EOF.
		if !errors.Is(err, ErrFrame) && !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("unexpected error class: %v", err)
		}
	})
}

// FuzzWireHello feeds the handshake reader arbitrary streams: whatever a
// malicious or confused peer sends in place of a hello must produce a
// clean frame/version error, never a panic.
func FuzzWireHello(f *testing.F) {
	f.Add(frameBytes(f, Hello()))
	f.Add(frameBytes(f, JobsHello()))
	f.Add(frameBytes(f, WireHello{Protocol: 99, Physics: 1}))
	f.Add(frameBytes(f, map[string]any{"proto": "one"}))
	f.Add([]byte{0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		h, err := ReadHello(bytes.NewReader(data))
		if err == nil {
			if cerr := h.Check(); cerr != nil {
				t.Fatalf("ReadHello accepted a hello Check rejects: %v", cerr)
			}
			return
		}
		if !errors.Is(err, ErrFrame) && !errors.Is(err, ErrVersionMismatch) &&
			!errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("unexpected error class: %v", err)
		}
	})
}

// binFrameBytes encodes v as one binary-codec wire frame for seeding.
func binFrameBytes(t testing.TB, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteBinaryFrame(&buf, v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzBinaryFrame feeds the binary-codec frame decoder arbitrary byte
// streams, mirroring FuzzReadFrame for the JSON handshake frames: hostile length
// prefixes, truncated payloads, and garbage encodings must surface as
// clean protocol errors — never a panic, never an allocation more than
// maxExactFrameRead ahead of the bytes present. Accepted inputs must
// be stable: encoding the decoded value yields a canonical form that
// round-trips to itself byte for byte. (The first encoding need not
// equal the input — varints have non-minimal spellings — and DeepEqual
// is no use here because NaN != NaN; canonical-form equality pins both.)
func FuzzBinaryFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0})                // truncated header
	f.Add([]byte{0xff, 0xff, 0xff, 0xff}) // length beyond MaxFrameBytes
	f.Add([]byte{0, 0, 0, 4, 1, 2})       // truncated payload
	f.Add(binFrameBytes(f, WireBatch{ID: 3}))
	f.Add(binFrameBytes(f, WireBatch{ID: 0, Reqs: []Request{{Trials: 2, Seed: 9}}}))
	f.Add(binFrameBytes(f, WireBatchResult{ID: 1, Items: []WireItem{{Err: "trial count"}}}))
	// A declared slice count far beyond the frame's bytes: the
	// over-allocation regression case for the binary decoder.
	f.Add([]byte{0, 0, 0, 6, 1, 1, 0xff, 0xff, 0xff, 0x7f})
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, probe := range []func() (any, error){
			func() (any, error) {
				var v WireBatch
				return &v, ReadBinaryFrame(bytes.NewReader(data), &v)
			},
			func() (any, error) {
				var v WireBatchResult
				return &v, ReadBinaryFrame(bytes.NewReader(data), &v)
			},
		} {
			v, err := probe()
			if err != nil {
				if !errors.Is(err, ErrFrame) && !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
					t.Fatalf("unexpected error class: %v", err)
				}
				continue
			}
			e1, err := EncodeBinary(v)
			if err != nil {
				t.Fatalf("decoded frame did not re-encode: %v", err)
			}
			if err := DecodeBinary(e1, v); err != nil {
				t.Fatalf("canonical form did not decode: %v", err)
			}
			e2, err := EncodeBinary(v)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(e1, e2) {
				t.Fatalf("canonical form unstable:\n% x\n% x", e1, e2)
			}
		}
	})
}

// TestBinaryMatchesJSONDecode is the cross-codec property test: for
// every wire type, the value decoded from the binary codec equals the
// value encoding/json decodes from the same original — the oracle that
// pins the binary codec to the wire structs' JSON meaning, float64 bits
// included.
func TestBinaryMatchesJSONDecode(t *testing.T) {
	req := workerRequest(t, 5)
	m, err := NewBench(0).Do(req)
	if err != nil {
		t.Fatal(err)
	}
	values := []any{
		Hello(),
		JobsHello(),
		WireBatch{ID: 42, Reqs: []Request{req, {Op: OpAnalyze, Scenario: req.Scenario, Fit: &FitConfig{Seed: 3, TrainRows: 10, TestRows: 4}}}},
		WireItem{M: m},
		WireBatchResult{ID: 7, Items: []WireItem{{M: m}, {Err: "trial count"}}},
		WireBatchResult{},
		WireJob{Proto: JobProtocolVersion, Op: JobOpRun, Job: json.RawMessage(`{"kind":"sweep"}`)},
		WireResult{Kind: ResultChunk, Chunk: "| XR1 | local |\n"},
		WireResult{Kind: ResultStats, Stats: json.RawMessage(`{"queued":1}`)},
	}
	for _, v := range values {
		rt := reflect.TypeOf(v)
		jsonPayload, err := json.Marshal(v)
		if err != nil {
			t.Fatalf("%s: %v", rt, err)
		}
		binPayload, err := EncodeBinary(v)
		if err != nil {
			t.Fatalf("%s: %v", rt, err)
		}
		fromJSON := reflect.New(rt)
		if err := json.Unmarshal(jsonPayload, fromJSON.Interface()); err != nil {
			t.Fatalf("%s: %v", rt, err)
		}
		fromBin := reflect.New(rt)
		if err := DecodeBinary(binPayload, fromBin.Interface()); err != nil {
			t.Fatalf("%s: %v", rt, err)
		}
		if !reflect.DeepEqual(fromJSON.Elem().Interface(), fromBin.Elem().Interface()) {
			t.Fatalf("%s: binary decode diverges from JSON decode:\njson   %+v\nbinary %+v",
				rt, fromJSON.Elem().Interface(), fromBin.Elem().Interface())
		}
	}
}

// TestDecodeBinaryBoundedAllocation pins the binary decoder's
// over-allocation defence directly: a payload declaring a huge element
// count with a handful of bytes behind it must fail cheaply.
func TestDecodeBinaryBoundedAllocation(t *testing.T) {
	// WireBatch: ID varint 0, Reqs presence 1, count uvarint = huge.
	hostile := []byte{0, 1, 0xff, 0xff, 0xff, 0xff, 0x7f}
	var v WireBatch
	allocs := testing.AllocsPerRun(20, func() {
		if err := DecodeBinary(hostile, &v); err == nil {
			t.Fatal("hostile count decoded successfully")
		}
	})
	if allocs > 50 {
		t.Fatalf("DecodeBinary made %.0f allocations for a 7-byte hostile payload", allocs)
	}
}

// TestReadFrameBoundedAllocation pins the over-allocation defence
// directly (the fuzz target only proves no panic): a stream declaring an
// enormous frame but carrying a handful of bytes must fail without
// allocating anywhere near the declared length.
func TestReadFrameBoundedAllocation(t *testing.T) {
	var head [4]byte
	binary.BigEndian.PutUint32(head[:], MaxFrameBytes) // 8 MB declared
	stream := append(head[:], []byte("short")...)
	var v json.RawMessage
	allocs := testing.AllocsPerRun(20, func() {
		if err := ReadFrame(bytes.NewReader(stream), &v); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("want ErrUnexpectedEOF, got %v", err)
		}
	})
	// The exact count is implementation detail; the point is it is a
	// handful of small buffers, not an 8 MB slab per call. AllocsPerRun
	// counts allocations, so pair it with a size probe.
	if allocs > 50 {
		t.Fatalf("ReadFrame made %.0f allocations for a 9-byte hostile stream", allocs)
	}
}

// TestReadRawFrameTruncatedAtExactThreshold pins the bytes a truncated
// frame costs on each side of maxExactFrameRead (64 KiB): a short
// declared length costs about itself, and any longer one, up to
// MaxFrameBytes, costs at most 64 KiB ahead of the 5 bytes that arrive
// (the 80 KiB bound leaves slack: the runtime rounds a large allocation
// up to whole 8 KiB pages).
func TestReadRawFrameTruncatedAtExactThreshold(t *testing.T) {
	for _, tc := range []struct {
		name     string
		declared uint32
		maxBytes uint64
	}{
		{"within-threshold", 1000, 2 << 10},
		{"at-threshold", 64 << 10, 80 << 10},
		{"past-threshold", 64<<10 + 1, 80 << 10},
		{"max-length", MaxFrameBytes, 80 << 10},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var head [4]byte
			binary.BigEndian.PutUint32(head[:], tc.declared)
			stream := append(head[:], []byte("short")...)
			const runs = 50
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < runs; i++ {
				if _, err := ReadRawFrame(bytes.NewReader(stream)); !errors.Is(err, io.ErrUnexpectedEOF) {
					t.Fatalf("want ErrUnexpectedEOF, got %v", err)
				}
			}
			runtime.ReadMemStats(&after)
			if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > tc.maxBytes {
				t.Fatalf("a %d-byte declared frame carrying 5 bytes allocated %d bytes per read, want at most %d",
					tc.declared, per, tc.maxBytes)
			}
		})
	}
}
