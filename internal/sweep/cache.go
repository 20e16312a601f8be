package sweep

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/testbed"
)

// CacheStats reports the memoizing cache's counters. Snapshots are
// consistent: every counter is read under the one lock that guards the
// entry map, so Hits+Misses+DiskHits always equals the number of
// classified requests at some single instant, even mid-run, and a cell
// is counted as measured or loaded before it counts as an entry.
type CacheStats struct {
	// Hits counts requests served without a new backend measurement —
	// from a completed entry, by waiting on an identical in-flight
	// measurement, or as an in-batch duplicate.
	Hits int64
	// Misses counts measurements actually dispatched to the backend.
	Misses int64
	// DiskHits counts cells loaded from the persistent store instead of
	// being measured; each cell is counted once, when it is loaded.
	DiskHits int64
	// Entries counts distinct cells memoized with a completed
	// measurement; cells still in flight are not counted.
	Entries int
}

// cacheEntry is one memoized (or in-flight) cell. done closes exactly
// once, after m/err are final.
type cacheEntry struct {
	once sync.Once
	done chan struct{}
	m    testbed.Measurement
	err  error
}

func newCacheEntry() *cacheEntry { return &cacheEntry{done: make(chan struct{})} }

// CachedRunner memoizes measurements across calls by content key on top
// of any backend. In memory the key is the request's binary content,
// seed included (Request.AppendKey); equal keys mean equal
// (Request.Fingerprint, Seed). Keys are spelled into one reused buffer
// straight from the caller's requests, so classifying a hit allocates
// nothing. Because a seeded request is a pure
// function of that content, serving a repeat from the cache is
// indistinguishable from re-measuring it: the cache changes how much
// work runs, never a byte of output. Identical cells requested
// concurrently (e.g. the same grid cell in two experiments running in
// parallel) are measured once: the first request owns the measurement
// and the rest wait on it. Requests that cannot be fingerprinted have
// no key either and pass through uncached.
//
// Stream emits by walking its requests' entries in index order on the
// caller's goroutine, blocking only on an entry that is not final yet,
// while the cells it owns are measured by the backend on a goroutine of
// its own. So one call adds a constant number of goroutines, not one
// per request, and the lowest-index error is simply the first one the
// walk meets.
//
// In-memory entries live for the runner's lifetime, and nothing bounds
// them but that: a CLI run's runner dies with its experiment grids, but
// `xrperf server` keeps one runner for its whole life, so its memory
// grows with every unique cell it has served (ROADMAP item 4). A
// measurement that fails is evicted so a later call can retry it. With a DiskCache
// attached (WithDiskCache), entries additionally persist across runner
// lifetimes and processes under (Fingerprint, Seed): a cell found on
// disk is served without any backend dispatch, and every cell the
// backend measures is written back.
type CachedRunner struct {
	backend Runner
	disk    *DiskCache

	mu       sync.Mutex
	entries  map[string]*cacheEntry
	hits     int64
	misses   int64
	diskHits int64
	// completed counts keyed entries holding a final measurement. Such
	// an entry is never evicted, so the count only grows.
	completed atomic.Int64
}

// CacheOption configures a CachedRunner.
type CacheOption func(*CachedRunner)

// WithDiskCache attaches a persistent store: cells found on disk are
// served without a backend dispatch, and measured cells are written
// back. A nil store leaves the runner memory-only.
func WithDiskCache(d *DiskCache) CacheOption {
	return func(c *CachedRunner) { c.disk = d }
}

// NewCachedRunner wraps backend with the memoizing measurement cache.
func NewCachedRunner(backend Runner, opts ...CacheOption) *CachedRunner {
	c := &CachedRunner{backend: backend, entries: make(map[string]*cacheEntry)}
	for _, opt := range opts {
		opt(c)
	}
	return c
}

// Backend returns the wrapped runner.
func (c *CachedRunner) Backend() Runner { return c.backend }

// Disk returns the attached persistent store, or nil.
func (c *CachedRunner) Disk() *DiskCache { return c.disk }

// Stats returns a consistent snapshot of the counters in constant time.
func (c *CachedRunner) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	// A cell's miss or disk hit is counted under c.mu before its entry
	// can complete, so reading completed under the lock never sees more
	// entries than accounted cells.
	return CacheStats{Hits: c.hits, Misses: c.misses, DiskHits: c.diskHits, Entries: int(c.completed.Load())}
}

// Run implements Runner.
func (c *CachedRunner) Run(ctx context.Context, reqs []testbed.Request) ([]testbed.Measurement, error) {
	return collectStream(ctx, len(reqs), func(ctx context.Context, emit func(int, testbed.Measurement) error) error {
		return c.Stream(ctx, reqs, emit)
	})
}

// Stream implements Runner: cache misses are dispatched to the backend
// as one sub-batch (preserving its parallelism and error semantics) on
// a goroutine of its own, while this goroutine walks every request's
// entry in index order and emits it once final; emission order and
// bytes are identical to an uncached run.
func (c *CachedRunner) Stream(ctx context.Context, reqs []testbed.Request, emit func(idx int, m testbed.Measurement) error) error {
	if len(reqs) == 0 {
		return ctx.Err()
	}
	entries, keys, fps, owned, ownedIdx, ownedReqs := c.classify(reqs)

	cctx, cancel := context.WithCancel(ctx)
	bgDone := make(chan struct{})
	var writes *diskWriter
	if len(ownedIdx) == 0 {
		close(bgDone)
	} else {
		// The backend completes entries on its own goroutine, never on
		// the walk's: two callers that each own a cell the other waits
		// on must both make progress. Write-backs run on a third
		// goroutine so persisting one cell never stalls the backend's
		// ordered delivery of the next; the channel holds every possible
		// write, so sends cannot block.
		writes = newDiskWriter(c.disk, len(ownedIdx))
		go func() {
			defer close(bgDone)
			err := c.backend.Stream(cctx, ownedReqs, func(j int, m testbed.Measurement) error {
				i := ownedIdx[j]
				c.complete(keys[i], entries[i], m)
				writes.enqueue(fps[i], reqs[i].Seed, m)
				return nil
			})
			writes.finish()
			if err != nil {
				// Any owned entry the backend never delivered fails with
				// the batch error and is evicted so future calls retry;
				// entries that already completed keep their result.
				for _, i := range ownedIdx {
					c.fail(keys[i], entries[i], err)
				}
			}
		}()
	}
	defer func() {
		cancel()
		<-bgDone      // owned entries are final before return
		writes.wait() // persisted before return, so a follow-up process runs warm
	}()

	for i, e := range entries {
		select {
		case <-e.done:
		case <-ctx.Done():
			return fmt.Errorf("sweep: point %d: %w", i, ctx.Err())
		}
		m, err := e.m, e.err
		if err != nil && !owned[i] && ctx.Err() == nil {
			// Another caller's measurement failed — canceled or a
			// transient backend error — but this caller is live. fail
			// already evicted the entry, so re-enter the cache and
			// measure the cell ourselves (racing retriers single-flight
			// on a fresh entry). Owned cells never retry: their backend
			// ran under this call's context, so their error is this
			// call's own. An in-batch duplicate is not owned, but its
			// owner sits at a lower index, so the walk has already
			// returned the owner's error. For a cell that fails
			// persistently this costs at most one dispatch per live
			// caller — each retry either owns the fresh entry (and
			// returns its own error, no further retry) or waits on
			// another live caller's attempt — which is no worse than
			// running the same callers uncached, and the recursion is
			// bounded by the caller count.
			var ms []testbed.Measurement
			if ms, err = c.Run(ctx, reqs[i:i+1]); err == nil {
				m = ms[0]
			}
		}
		if err != nil {
			return fmt.Errorf("sweep: point %d: %w", i, err)
		}
		if err := emit(i, m); err != nil {
			return fmt.Errorf("sweep: emit point %d: %w", i, err)
		}
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("sweep: %w", err)
	}
	return nil
}

// diskWrite is one pending write-back.
type diskWrite struct {
	fp   string
	seed int64
	m    testbed.Measurement
}

// diskWriter persists completed cells off the measurement path: cells
// are enqueued as they complete and written by one goroutine, which the
// owning Stream call drains before returning so a follow-up process
// finds them. Every write is best-effort — a failed persist only costs
// a future re-measurement. A nil writer (no disk, nothing owned) is a
// no-op.
type diskWriter struct {
	ch   chan diskWrite
	done chan struct{}
}

func newDiskWriter(d *DiskCache, capacity int) *diskWriter {
	if d == nil {
		return nil
	}
	w := &diskWriter{ch: make(chan diskWrite, capacity), done: make(chan struct{})}
	go func() {
		defer close(w.done)
		for wr := range w.ch {
			_ = d.Put(wr.fp, wr.seed, wr.m)
		}
	}()
	return w
}

func (w *diskWriter) enqueue(fp string, seed int64, m testbed.Measurement) {
	if w == nil || fp == "" {
		return
	}
	w.ch <- diskWrite{fp, seed, m} // buffered for every owned cell: never blocks
}

func (w *diskWriter) finish() {
	if w != nil {
		close(w.ch)
	}
}

func (w *diskWriter) wait() {
	if w != nil {
		<-w.done
	}
}

// classify resolves each request to a cache entry in one lock pass plus
// lock-free disk lookups: completed or in-flight entries count as hits
// (an in-batch duplicate finds its first occurrence's fresh entry and
// waits on it like any other in-flight cell); the first occurrence of a
// new key registers an in-flight entry and — if a persistent store is
// attached and the cell is persistable — checks disk outside the lock,
// loading a found cell as a completed entry (disk hit) or becoming an
// owned measurement (miss) otherwise. Requests without a key get a
// private uncached entry. Registering before reading keeps concurrent
// callers single-flighted on the in-flight entry instead of re-reading
// the store, and keeps classification of other batches from
// serializing behind file I/O.
//
// Memory keys are each request's binary content (Request.AppendKey,
// which reads the request in place), built in one reused buffer, so a
// hit allocates nothing: no key string, no request copy. The JSON
// fingerprint that names a cell on disk is computed only for the fresh
// cells the store is asked about; keys[i] is set for owned cells and
// fps[i] for the cells whose measurement is written back.
func (c *CachedRunner) classify(reqs []testbed.Request) (entries []*cacheEntry, keys, fps []string, owned []bool, ownedIdx []int, ownedReqs []testbed.Request) {
	n := len(reqs)
	entries = make([]*cacheEntry, n)
	keys = make([]string, n)
	fps = make([]string, n)
	owned = make([]bool, n)
	own := func(i int) {
		if ownedIdx == nil {
			// Sized once, at the first owned cell, for every later
			// request being owned too; a call of all hits sizes nothing.
			ownedIdx = make([]int, 0, n-i)
			ownedReqs = make([]testbed.Request, 0, n-i)
		}
		ownedIdx = append(ownedIdx, i)
		ownedReqs = append(ownedReqs, reqs[i])
	}
	var pending []int // fresh keys whose disk lookup is still outstanding
	var buf []byte

	c.mu.Lock()
	if len(c.entries) == 0 {
		// A fresh runner's first grid is all misses: size the map for
		// it rather than growing it through every doubling.
		c.entries = make(map[string]*cacheEntry, n)
	}
	for i := range reqs {
		r := &reqs[i]
		var err error
		buf, err = r.AppendKey(buf[:0])
		if err != nil {
			entries[i] = newCacheEntry()
			owned[i] = true
			own(i)
			c.misses++
			continue
		}
		if e, ok := c.entries[string(buf)]; ok {
			entries[i] = e
			c.hits++
			continue
		}
		e := newCacheEntry()
		entries[i] = e
		keys[i] = string(buf)
		c.entries[keys[i]] = e
		owned[i] = true
		if c.disk != nil && persistable(r) {
			pending = append(pending, i)
		} else {
			own(i)
			c.misses++
		}
	}
	c.mu.Unlock()

	for _, i := range pending {
		// A keyed request always has a fingerprint; should one ever
		// fail, the cell is measured but kept out of the store.
		fp, err := reqs[i].Fingerprint()
		var m testbed.Measurement
		ok := false
		if err == nil {
			fps[i] = fp
			m, ok = c.disk.Get(fp, reqs[i].Seed)
		}
		c.mu.Lock()
		if ok {
			c.diskHits++
		} else {
			c.misses++
		}
		c.mu.Unlock()
		if ok {
			// Counted before completing, so a Stats snapshot never sees
			// more completed entries than accounted cells.
			c.complete(keys[i], entries[i], m)
			owned[i] = false
			continue
		}
		own(i)
	}
	return entries, keys, fps, owned, ownedIdx, ownedReqs
}

// persistable reports whether a request's result may live in the
// persistent store. Only measurements qualify: their semantics are
// stamped and golden-tested via testbed.PhysicsVersion, so a stale
// cache directory invalidates when the physics changes. Analyze
// results depend on the analytical-model code instead, which carries no
// such version — persisting them would replay an older binary's model
// numbers — and they are cheap, noise-free evaluations, so each process
// recomputes them (still memoized in memory for the runner's lifetime).
func persistable(r *testbed.Request) bool {
	return r.Op == "" || r.Op == testbed.OpMeasure
}

// complete finalizes an entry with m if it has no result yet. A keyed
// entry is counted before its channel closes, so a caller that saw it
// done also sees it in Stats; a private uncached entry is never counted.
func (c *CachedRunner) complete(key string, e *cacheEntry, m testbed.Measurement) {
	e.once.Do(func() {
		e.m = m
		if key != "" {
			c.completed.Add(1)
		}
		close(e.done)
	})
}

// fail finalizes an entry with err if it has no result yet, evicting it
// from the cache so the cell can be retried by a later call.
func (c *CachedRunner) fail(key string, e *cacheEntry, err error) {
	failed := false
	e.once.Do(func() {
		e.err = err
		close(e.done)
		failed = true
	})
	if failed && key != "" {
		c.mu.Lock()
		if c.entries[key] == e {
			delete(c.entries, key)
		}
		c.mu.Unlock()
	}
}
