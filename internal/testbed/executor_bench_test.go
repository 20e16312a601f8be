package testbed

import (
	"context"
	"testing"
)

// BenchmarkExecutorDoBatch times the node-side executor on a 16-request
// batch per op: measure (30 trials per cell), analyze (a fitted bundle,
// fitted before the timer starts, so the loop times the memoized
// lookup and the model evaluation) and session (one 60-frame user per
// request).
func BenchmarkExecutorDoBatch(b *testing.B) {
	measure := benchRequests(b)
	fit := &FitConfig{Seed: 42, TrainRows: 2000, TestRows: 500}
	analyze := make([]Request, len(measure))
	session := make([]Request, len(measure))
	for i, r := range measure {
		analyze[i] = Request{Op: OpAnalyze, Scenario: r.Scenario, Fit: fit}
		session[i] = Request{Op: OpSession, Scenario: r.Scenario, Seed: r.Seed,
			Session: &SessionConfig{Frames: 60, Users: 1}}
	}
	for _, bc := range []struct {
		name string
		reqs []Request
	}{{"measure", measure}, {"analyze", analyze}, {"session", session}} {
		b.Run(bc.name, func(b *testing.B) {
			exec := NewExecutor(nil)
			for _, it := range exec.DoBatch(context.Background(), bc.reqs) {
				if it.Err != "" {
					b.Fatal(it.Err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				execSink = exec.DoBatch(context.Background(), bc.reqs)
			}
		})
	}
}

// execSink keeps benchmarked results alive.
var execSink []WireItem
