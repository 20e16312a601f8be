// Package sweep is the parallel scenario-sweep execution engine. The
// paper's evaluation (Section VII, Fig. 4a–e) is a grid of independent
// scenario points — device × CNN × inference mode × resolution × clock —
// and every point is a pure function of its configuration plus a
// deterministic noise seed. The engine fans such grids out across a
// worker pool with context cancelation, per-shard deterministic seeding,
// early error propagation, and streaming aggregation that delivers
// results in grid order despite out-of-order completion.
//
// Three layers build on the core Run/Stream primitives:
//
//   - Grid/Spec enumerate cartesian scenario grids in a canonical
//     row-major order, so point indices — and therefore shard seeds —
//     are stable for a given grid shape.
//   - Task/RunTasks/StreamTasks group heterogeneous named units of work
//     (e.g. the full set of paper experiments) under one pool with the
//     same ordered-streaming guarantees; TaskSeed gives each unit an
//     independent deterministic seed stream derived from its name.
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
// Determinism contract: a point's seed depends only on (base seed, point
// index) — or, for task groups, (base seed, task name); measurement
// requests carry content-addressed seeds of their own — never on worker
// identity, completion order, or which backend ran the point, so a
// sweep's output is byte-identical whether it runs on one worker, on
// GOMAXPROCS workers, across subprocesses, or across machines.
package sweep
