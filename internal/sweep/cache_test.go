package sweep

import (
	"bytes"
	"context"
	"math"
	"testing"

	"repro/internal/testbed"
)

// TestCachedRunnerNonFiniteStaysPrivate pins that a request JSON cannot
// fingerprint — here a non-finite float — has no memory key either:
// repeats of it, within one batch and across calls, each get a private
// entry and are measured every time.
func TestCachedRunnerNonFiniteStaysPrivate(t *testing.T) {
	req := testRequests(t, 3)[4] // a remote cell
	sc := *req.Scenario
	sc.RequiredUpdateHz = math.Inf(1)
	req.Scenario = &sc
	if _, err := req.Fingerprint(); err == nil {
		t.Fatal("fixture is fingerprintable")
	}
	c := NewCachedRunner(&PoolRunner{})
	for call := 0; call < 2; call++ {
		if _, err := c.Run(context.Background(), []testbed.Request{req, req}); err != nil {
			t.Fatal(err)
		}
	}
	if st := c.Stats(); st.Misses != 4 || st.Hits != 0 || st.Entries != 0 {
		t.Fatalf("non-finite requests were cached: %+v, want 4 misses / 0 hits / 0 entries", st)
	}
}

// TestGridKeysMatchCopyEncoding holds each benchGrid cell's memory
// key, which AppendKey reads from the request in place, to the binary
// encoding of a copy with Op normalised.
func TestGridKeysMatchCopyEncoding(t *testing.T) {
	var buf []byte
	for i, r := range benchGrid(t) {
		c := r
		c.Op = testbed.OpMeasure
		want, err := testbed.EncodeBinary(c)
		if err != nil {
			t.Fatal(err)
		}
		if buf, err = r.AppendKey(buf[:0]); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, want) {
			t.Fatalf("cell %d: AppendKey differs from the copy-encoded key", i)
		}
	}
}
