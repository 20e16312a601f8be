package fleet

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"repro/internal/testbed"
)

// frameBytes encodes v as one wire frame for seeding.
func frameBytes(t testing.TB, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := testbed.WriteFrame(&buf, v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzWireRegister feeds the coordinator's registration reader arbitrary
// byte streams: whatever a malicious or confused dialer sends in place
// of a registration frame must surface as a clean frame/version/address
// error, never a panic — the coordinator's listener is the fleet's most
// exposed surface. Accepted registrations must round-trip.
func FuzzWireRegister(f *testing.F) {
	f.Add(frameBytes(f, WireRegister{Proto: RegisterProtocolVersion, Addr: "127.0.0.1:7777", Node: testbed.Hello()}))
	f.Add(frameBytes(f, WireRegister{Proto: 99, Addr: "127.0.0.1:7777", Node: testbed.Hello()}))
	f.Add(frameBytes(f, WireRegister{Proto: RegisterProtocolVersion, Addr: "no-port", Node: testbed.Hello()}))
	f.Add(frameBytes(f, WireRegister{Proto: RegisterProtocolVersion})) // no address at all
	f.Add(frameBytes(f, map[string]any{"proto": "one", "addr": 7}))
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff}) // hostile length prefix
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := ReadRegister(bytes.NewReader(data))
		if err == nil {
			if cerr := r.Check(); cerr != nil {
				t.Fatalf("ReadRegister accepted a frame Check rejects: %v", cerr)
			}
			// A valid registration re-encodes and reads back identically.
			r2, err := ReadRegister(bytes.NewReader(frameBytes(t, r)))
			if err != nil {
				t.Fatalf("round trip failed: %v", err)
			}
			if r2 != r {
				t.Fatalf("round trip changed the frame:\n%+v\n%+v", r, r2)
			}
			return
		}
		if errors.Is(err, testbed.ErrFrame) || errors.Is(err, testbed.ErrVersionMismatch) ||
			errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return
		}
		// The only remaining legal class is the address validation error.
		if !errors.Is(err, errBadAddr) {
			t.Fatalf("unexpected error class: %v", err)
		}
	})
}
