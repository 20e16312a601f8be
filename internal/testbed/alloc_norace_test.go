//go:build !race

package testbed

import (
	"io"
	"testing"
)

// The race detector makes sync.Pool drop items at random, so the pins
// on pooled paths build only without it.

// TestWriteBinaryFrameAllocs pins WriteBinaryFrame to its pooled
// buffer: a steady-state batch frame costs at most the boxing of the
// value, never a copy of the payload.
func TestWriteBinaryFrameAllocs(t *testing.T) {
	batch := WireBatch{ID: 7, Reqs: benchRequests(t)}
	if err := WriteBinaryFrame(io.Discard, batch); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := WriteBinaryFrame(io.Discard, batch); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Fatalf("WriteBinaryFrame of a 16-request batch made %.1f allocations, want at most 1", allocs)
	}
}
