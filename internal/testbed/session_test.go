package testbed

import (
	"bytes"
	"context"
	"math"
	"testing"

	"repro/internal/mobility"
	"repro/internal/pipeline"
	"repro/internal/session"
	"repro/internal/wireless"
)

func sessionRequest(t *testing.T, users int, opts ...pipeline.Option) Request {
	t.Helper()
	return Request{
		Op:       OpSession,
		Scenario: scenario(t, opts...),
		Seed:     42,
		Session: &SessionConfig{
			Frames: 10,
			Users:  users,
		},
	}
}

func TestSessionOpRuns(t *testing.T) {
	exec := NewExecutor(nil)
	m, err := exec.Do(context.Background(), sessionRequest(t, 3))
	if err != nil {
		t.Fatal(err)
	}
	sum := m.Session
	if sum == nil {
		t.Fatal("session request returned no summary")
	}
	if sum.Users != 3 || sum.Frames != 30 {
		t.Fatalf("summary counts: %d users, %d frames, want 3, 30", sum.Users, sum.Frames)
	}
	if sum.Latency.Count != sum.Frames || sum.Energy.Count != sum.Frames {
		t.Fatalf("sketch counts (%d, %d) != frames %d",
			sum.Latency.Count, sum.Energy.Count, sum.Frames)
	}
	if m.LatencyMs != sum.Latency.Mean() || m.EnergyMJ != sum.Energy.Mean() {
		t.Fatal("measurement scalars must carry the sketch means")
	}
	if sum.TotalEnergyMJ <= 0 {
		t.Fatalf("total energy %v", sum.TotalEnergyMJ)
	}
	if sum.Trace != nil {
		t.Fatal("trace must stay nil without IncludeTrace")
	}
}

// TestSessionShardSplitInvariant is the determinism property the
// population sweep is built on: a cohort split into shards of any size —
// via Users/FirstUser — merges to the same summary. Integer counters,
// extremes, and sketch buckets are exact; the float Sum accumulators may
// differ by round-off since addition associates differently per split.
func TestSessionShardSplitInvariant(t *testing.T) {
	exec := NewExecutor(nil)
	whole := sessionRequest(t, 12)
	wm, err := exec.Do(context.Background(), whole)
	if err != nil {
		t.Fatal(err)
	}

	for _, split := range [][]int{{1, 11}, {4, 4, 4}, {5, 7}} {
		merged := NewSessionSummary(0)
		var first uint64
		for _, n := range split {
			req := whole
			s := *whole.Session
			s.Users = n
			s.FirstUser = first
			req.Session = &s
			m, err := exec.Do(context.Background(), req)
			if err != nil {
				t.Fatal(err)
			}
			if err := merged.Merge(m.Session); err != nil {
				t.Fatal(err)
			}
			first += uint64(n)
		}
		w, g := wm.Session, merged
		if g.Users != w.Users || g.Frames != w.Frames ||
			g.Latency.Min != w.Latency.Min || g.Latency.Max != w.Latency.Max ||
			g.Energy.Min != w.Energy.Min || g.Energy.Max != w.Energy.Max ||
			g.MinSoC != w.MinSoC || g.PeakTempC != w.PeakTempC ||
			g.ThrottledFrames != w.ThrottledFrames || g.Depleted != w.Depleted {
			t.Fatalf("split %v diverged from whole cohort:\n got %+v\nwant %+v", split, g, w)
		}
		if len(g.Latency.Buckets) != len(w.Latency.Buckets) {
			t.Fatalf("split %v: bucket sets differ", split)
		}
		for i, n := range w.Latency.Buckets {
			if g.Latency.Buckets[i] != n {
				t.Fatalf("split %v: bucket %d count %d, want %d", split, i, g.Latency.Buckets[i], n)
			}
		}
		// Float sums associate differently per split; round-off only.
		if rel := relDiff(g.TotalEnergyMJ, w.TotalEnergyMJ); rel > 1e-12 {
			t.Fatalf("split %v: total energy off by %v", split, rel)
		}
		if rel := relDiff(g.Latency.Sum, w.Latency.Sum); rel > 1e-12 {
			t.Fatalf("split %v: latency sum off by %v", split, rel)
		}
	}
}

func relDiff(a, b float64) float64 {
	if b == 0 {
		return math.Abs(a)
	}
	return math.Abs(a-b) / math.Abs(b)
}

// TestUserSeedGlobal pins the per-user seed derivation to the global user
// index: distinct users draw distinct streams, and the same (base, user)
// always derives the same seed regardless of which shard asks.
func TestUserSeedGlobal(t *testing.T) {
	seen := map[int64]uint64{}
	for u := uint64(0); u < 1000; u++ {
		s := UserSeed(42, u)
		if prev, dup := seen[s]; dup {
			t.Fatalf("users %d and %d collide on seed %d", prev, u, s)
		}
		seen[s] = u
	}
	if UserSeed(42, 7) != UserSeed(42, 7) {
		t.Fatal("UserSeed must be a pure function")
	}
	if UserSeed(42, 7) == UserSeed(43, 7) {
		t.Fatal("different base seeds must derive different user seeds")
	}
}

func TestSessionIncludeTrace(t *testing.T) {
	exec := NewExecutor(nil)
	req := sessionRequest(t, 1)
	req.Session.IncludeTrace = true
	m, err := exec.Do(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Session.Trace) != 10 {
		t.Fatalf("trace length %d, want 10", len(m.Session.Trace))
	}
	// Trace retention is single-user only: a population shard asking for
	// traces would defeat the flat-memory contract.
	req.Session.Users = 2
	if _, err := exec.Do(context.Background(), req); err == nil {
		t.Fatal("IncludeTrace with 2 users must error")
	}
}

func TestSessionRequestWire(t *testing.T) {
	th := session.DefaultThermal()
	req := sessionRequest(t, 5, pipeline.WithMode(pipeline.ModeRemote))
	req.Session.Thermal = &th
	req.Session.BatteryMAh = 4000
	req.Session.BatteryStartSoC = 0.5
	req.Session.Mobility = &MobilityConfig{
		SpeedMps:       1.4,
		StepMs:         50,
		ZoneTechnology: wireless.WiFi5GHz,
		ZoneRadiusM:    40,
		Kind:           mobility.HandoffVertical,
	}
	if err := req.WireSafe(); err != nil {
		t.Fatalf("WireSafe: %v", err)
	}

	// Round-trip through the worker wire framing and execute both sides:
	// the reconstructed request must reproduce the original bit for bit.
	var buf bytes.Buffer
	if err := WriteFrame(&buf, req); err != nil {
		t.Fatal(err)
	}
	var back Request
	if err := ReadFrame(&buf, &back); err != nil {
		t.Fatal(err)
	}
	a, err := NewExecutor(nil).Do(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewExecutor(nil).Do(context.Background(), back)
	if err != nil {
		t.Fatal(err)
	}
	var ab, bb bytes.Buffer
	if err := WriteFrame(&ab, a); err != nil {
		t.Fatal(err)
	}
	if err := WriteFrame(&bb, b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ab.Bytes(), bb.Bytes()) {
		t.Fatalf("wire round trip changed the session result:\n%s\nvs\n%s", ab.Bytes(), bb.Bytes())
	}

	fpA, err := req.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	fpB, err := back.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if fpA != fpB {
		t.Fatalf("fingerprint changed across the wire:\n%s\nvs\n%s", fpA, fpB)
	}
}

// TestSessionFingerprintSeparatesConfigs checks the cache key covers the
// session payload: same scenario, different session config → different
// fingerprints; Seed stays excluded like every other op.
func TestSessionFingerprintSeparatesConfigs(t *testing.T) {
	a := sessionRequest(t, 5)
	b := sessionRequest(t, 5)
	b.Session.Frames = 20
	fpA, err := a.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	fpB, err := b.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if fpA == fpB {
		t.Fatal("different session configs must not share a fingerprint")
	}
	c := sessionRequest(t, 5)
	c.Seed = 999
	fpC, err := c.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if fpA != fpC {
		t.Fatal("fingerprint must exclude the seed")
	}
}

func TestSessionConfigValidation(t *testing.T) {
	base := func() Request { return sessionRequest(t, 1) }
	cases := []struct {
		name   string
		mutate func(*Request)
	}{
		{"nil session", func(r *Request) { r.Session = nil }},
		{"zero frames", func(r *Request) { r.Session.Frames = 0 }},
		{"negative users", func(r *Request) { r.Session.Users = -1 }},
		{"negative battery", func(r *Request) { r.Session.BatteryMAh = -1 }},
		{"SoC above full", func(r *Request) { r.Session.BatteryStartSoC = 1.5 }},
		{"alpha out of range", func(r *Request) { r.Session.SketchAlpha = 1 }},
		{"trace on cohort", func(r *Request) { r.Session.Users = 3; r.Session.IncludeTrace = true }},
		{"bad walk", func(r *Request) {
			r.Session.Mobility = &MobilityConfig{SpeedMps: -1, StepMs: 50, ZoneRadiusM: 10}
		}},
		{"bad zone", func(r *Request) {
			r.Session.Mobility = &MobilityConfig{SpeedMps: 1, StepMs: 50, ZoneRadiusM: 0}
		}},
	}
	for _, tc := range cases {
		req := base()
		tc.mutate(&req)
		if _, err := NewExecutor(nil).Do(context.Background(), req); err == nil {
			t.Errorf("%s: want error", tc.name)
		}
		if err := req.WireSafe(); err == nil {
			t.Errorf("%s: WireSafe must reject it too", tc.name)
		}
	}
}

func TestSessionCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := sessionRequest(t, 100000)
	req.Session.Frames = 1000
	if _, err := NewExecutor(nil).Do(ctx, req); err == nil {
		t.Fatal("canceled context must abort the session block")
	}
}

func TestSessionSummaryMergeEmpty(t *testing.T) {
	s := NewSessionSummary(0)
	if err := s.Merge(nil); err != nil {
		t.Fatal(err)
	}
	if err := s.Merge(NewSessionSummary(0.5)); err != nil {
		t.Fatal("merging an empty summary must ignore alpha")
	}
	if s.Users != 0 || s.MinSoC != 1 {
		t.Fatalf("empty merges must not change the accumulator: %+v", s)
	}
}
