package sweep

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

// mergeEvent is one step of a merge schedule: point idx delivers its
// result (err == nil) or reports a failure.
type mergeEvent struct {
	idx int
	err error
}

// mergeSchedule is what the engines around a merge can do to it: deliver
// and fail points in any order, leave points undelivered once something
// canceled the sweep, fail one emit, and cancel the caller's context.
type mergeSchedule struct {
	n        int
	events   []mergeEvent // in arrival order; each index at most once
	failEmit int          // index whose emit fails; -1 for none
	canceled bool         // the caller's context ends before the merge does
}

var errSinkFull = errors.New("sink full")

// genMergeSchedule draws a schedule from seed: random completion order,
// genuine and context.Canceled failures (bare and wrapped), an optional
// emit failure and an optional caller cancel. A point goes undelivered
// only when the schedule holds a cause that would have canceled it.
func genMergeSchedule(seed int64) mergeSchedule {
	rng := rand.New(rand.NewSource(seed))
	s := mergeSchedule{n: 1 + rng.Intn(10), failEmit: -1, canceled: rng.Intn(8) == 0}
	if rng.Intn(3) == 0 {
		s.failEmit = rng.Intn(s.n)
	}
	const (
		deliver = iota
		genuine
		canceled
		missing
	)
	kinds := make([]int, s.n)
	failed := false
	for i := range kinds {
		switch r := rng.Intn(20); {
		case r < 13:
			kinds[i] = deliver
		case r < 15:
			kinds[i], failed = genuine, true
		case r < 17:
			kinds[i], failed = canceled, true
		default:
			kinds[i] = missing
		}
	}
	emitFails := s.failEmit >= 0
	for i := 0; i <= s.failEmit; i++ {
		emitFails = emitFails && kinds[i] == deliver
	}
	for _, i := range rng.Perm(s.n) {
		switch kinds[i] {
		case deliver:
			s.events = append(s.events, mergeEvent{idx: i})
		case genuine:
			err := fmt.Errorf("cell %d broke", i)
			if rng.Intn(4) == 0 {
				err = context.DeadlineExceeded // not Canceled, so genuine
			}
			s.events = append(s.events, mergeEvent{i, err})
		case canceled:
			err := context.Canceled
			if rng.Intn(2) == 0 {
				err = fmt.Errorf("worker: %w", context.Canceled)
			}
			s.events = append(s.events, mergeEvent{i, err})
		case missing:
			if !failed && !emitFails && !s.canceled {
				s.events = append(s.events, mergeEvent{idx: i})
			}
		}
	}
	return s
}

// referenceMerge states the merge's contract without its mechanism: the
// emitted prefix ends at the first undelivered point or the failed emit,
// and the error is the lowest-index genuine failure, else the emit
// failure, else the lowest-index canceled failure, else the caller's
// cancelation. cause is the error the merge's error must wrap.
func referenceMerge(s mergeSchedule) (emitted int, msg string, cause error) {
	delivered := make([]bool, s.n)
	genuine, canceled := -1, -1
	var genuineErr, canceledErr error
	for _, e := range s.events {
		switch {
		case e.err == nil:
			delivered[e.idx] = true
		case errors.Is(e.err, context.Canceled):
			if canceled < 0 || e.idx < canceled {
				canceled, canceledErr = e.idx, e.err
			}
		default:
			if genuine < 0 || e.idx < genuine {
				genuine, genuineErr = e.idx, e.err
			}
		}
	}
	for emitted < s.n && delivered[emitted] {
		emitted++
	}
	emitFailed := s.failEmit >= 0 && s.failEmit < emitted
	if emitFailed {
		emitted = s.failEmit
	}
	switch {
	case genuine >= 0:
		return emitted, fmt.Sprintf("sweep: point %d: %v", genuine, genuineErr), genuineErr
	case emitFailed:
		return emitted, fmt.Sprintf("sweep: emit point %d: %v", s.failEmit, errSinkFull), errSinkFull
	case canceled >= 0:
		return emitted, fmt.Sprintf("sweep: point %d: %v", canceled, canceledErr), canceledErr
	case s.canceled || emitted < s.n:
		return emitted, "sweep: context canceled", context.Canceled
	}
	return emitted, "", nil
}

// runMergeSchedule feeds a schedule straight into a merge on one
// goroutine and returns what it emitted and its error.
func runMergeSchedule(t *testing.T, s mergeSchedule) (emitted int, err error) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	m := newMerge(ctx, s.n, func(idx, v int) error {
		if idx != emitted || v != 100+idx {
			t.Fatalf("emitted point %d = %d after %d points, want point %d = %d", idx, v, emitted, emitted, 100+emitted)
		}
		if idx == s.failEmit {
			return errSinkFull
		}
		emitted++
		return nil
	})
	defer m.cancel()
	for _, e := range s.events {
		if e.err != nil {
			m.fail(e.idx, e.err)
		} else {
			m.deliver(e.idx, 100+e.idx)
		}
	}
	if s.canceled {
		cancel()
	}
	return emitted, m.result()
}

// mergeRegressionSeeds are schedules that caught a broken merge, each
// the first seed to fail against a copy of the merge with one rule
// changed. They run first, and stay even if the seed range changes.
var mergeRegressionSeeds = []int64{
	2,  // a canceled failure outranks a genuine one
	5,  // the pending buffer is not drained after an in-order delivery
	9,  // the caller's cancelation is ignored
	12, // the highest index wins
	89, // the emit error outranks a genuine failure
}

// TestMergeRandomSchedules checks the shared ordered merge against
// referenceMerge on thousands of generated schedules, with no goroutine
// timing involved: the emitted prefix, the values emitted and the
// returned error must all match.
func TestMergeRandomSchedules(t *testing.T) {
	seeds := append([]int64(nil), mergeRegressionSeeds...)
	for seed := int64(1); seed <= 5000; seed++ {
		seeds = append(seeds, seed)
	}
	for _, seed := range seeds {
		s := genMergeSchedule(seed)
		wantEmitted, wantMsg, cause := referenceMerge(s)
		emitted, err := runMergeSchedule(t, s)
		msg := ""
		if err != nil {
			msg = err.Error()
		}
		if emitted != wantEmitted || msg != wantMsg || !errors.Is(err, cause) {
			t.Fatalf("seed %d (%+v): emitted %d points, err %q; want %d points, err %q wrapping %v",
				seed, s, emitted, msg, wantEmitted, wantMsg, cause)
		}
	}
}
