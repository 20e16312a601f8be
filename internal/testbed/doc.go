// Package testbed substitutes the paper's physical experiment
// infrastructure (seven XR devices, two Jetson edge servers, and a Monsoon
// power monitor) with a synthetic equivalent. A hidden "true physics" layer
// implements the same component interfaces the analytical models do —
// computation resource, encoder, CNN complexity, and power — but with
// nonlinearities (cubic and fractional-power frequency terms, interaction
// terms) that the paper-form quadratic/linear regressions can only
// approximate. Measurements sample this physics with multiplicative noise,
// exactly the role field data plays for the paper: the framework fits its
// regressions on noisy training-device samples and is judged on held-out
// devices.
//
// The physics itself is immutable after construction; only the monitor
// noise stream carries state. A measurement therefore evaluates the
// physics once per cell and draws only the monitor noise per trial —
// unless the scenario carries a process-local path-loss model, which may
// draw from its own stream on every call and is re-evaluated per trial.
// Bench.MeasureFrame/MeasureFrames draw from the bench's shared serial
// RNG and therefore depend on measurement order, while
// Bench.MeasureFramesSeeded draws from a caller-supplied seed and is the
// concurrency-safe, order-independent form every experiment and sweep
// uses.
//
// Request is the serializable unit of that seeded form: scenario, trial
// count, noise level, and seed (or, for analyze requests, a FitConfig
// identifying a reconstructible model bundle) — everything any process
// needs to reproduce an observation bit for bit. Executor runs requests
// locally; Serve/MaybeServeWorker expose the same execution over a
// length-prefixed binary frame protocol (after a JSON hello) on
// stdin/stdout, which is how `xrperf worker` subprocesses answer the
// proc sweep backend.
package testbed
