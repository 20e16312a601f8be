// Package sweep is the parallel scenario-sweep execution engine. The
// paper's evaluation (Section VII, Fig. 4a–e) is a grid of independent
// scenario points — device × CNN × inference mode × resolution × clock —
// and every point is a pure function of its configuration plus a
// deterministic noise seed. The engine fans such grids out across a
// worker pool with context cancelation, early error propagation, and
// streaming aggregation that delivers results in grid order despite
// out-of-order completion.
//
// The one primitive is Stream, with Run as its collecting twin: fn(ctx,
// i) evaluates point i and emit receives results in index order. Two
// layers build on it:
//
//   - Grid/Spec enumerate cartesian scenario grids in a canonical
//     row-major order, so point indices are stable for a given grid
//     shape.
//   - Runner abstracts the execution backend for serializable work units
//     (testbed.Request): PoolRunner fans out across an in-process pool,
//     ProcRunner shards across worker subprocesses speaking the
//     length-prefixed binary frame protocol (after a JSON hello) over
//     pipes, NetRunner dispatches the same protocol over TCP to a fleet
//     of serve nodes, both through one worker link whose handshake is
//     version-verified, time-bounded and cancelable (crashed workers
//     re-dispatched, failing sources quarantined with backoff), and
//     CachedRunner memoizes results by content key over any of them —
//     optionally persisting them through a DiskCache so warm runs across
//     processes (or a fleet sharing one cache directory) re-measure
//     nothing — all with identical ordering, error, and byte-for-byte
//     determinism guarantees.
//
// Determinism contract: the engine hands fn nothing but the point's
// index, so a point's result may depend only on its own inputs — never
// on worker identity, completion order, or which backend ran it.
// Measurement requests carry content-addressed seeds of their own
// (testbed.Request.ContentSeed), and callers that fan one seed out over
// indexed units derive them with ShardSeed(base, index). A sweep's
// output is therefore byte-identical whether it runs on one worker, on
// GOMAXPROCS workers, across subprocesses, or across machines. Test
// harnesses for the backends live in package sweeptest.
package sweep
