// Package exec provides a deterministic worker-pool executor for
// independent experiment trials.
//
// The paper's evaluation is embarrassingly parallel — every figure is a
// grid of independent seeded simulation runs — but parallel execution must
// never change the numbers. The executor therefore guarantees that results
// land in the output slice by trial index (never by completion order), so a
// caller that folds the results in slice order observes exactly the
// sequence a sequential loop would have produced.
package exec

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool configures how a batch of independent trials executes.
type Pool struct {
	// Workers bounds the number of concurrently running trials. Zero or
	// negative selects runtime.GOMAXPROCS(0); 1 runs the trials strictly
	// sequentially on the calling goroutine, byte-for-byte reproducing a
	// plain loop.
	Workers int

	// Progress, if non-nil, is invoked with the trial index just before
	// that trial's job starts. With Workers > 1 it is called from multiple
	// goroutines at once, so it must be safe for concurrent use.
	Progress func(trial int)
}

// Job computes the result of one trial.
type Job[T any] func(trial int) (T, error)

// Run executes trials 0..n-1 through the pool and returns their results
// indexed by trial. Once any trial fails no new trial starts; Run waits
// for the running ones and returns the partial results together with the
// error of the failed trial with the lowest index: results[i] holds the
// job's value for every trial that completed without error and the zero
// value for trials that failed or never started. A panic inside a job is
// recovered and surfaced as that trial's error.
func Run[T any](p Pool, n int, job Job[T]) ([]T, error) {
	if n < 0 {
		return nil, fmt.Errorf("exec: negative trial count %d", n)
	}
	results := make([]T, n)
	workers := p.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}

	if workers <= 1 {
		// Sequential fast path: no goroutines, a plain loop.
		for i := 0; i < n; i++ {
			v, err := runTrial(p, i, job)
			if err != nil {
				return results, err
			}
			results[i] = v
		}
		return results, nil
	}

	var (
		next     atomic.Int64 // the next trial index to claim
		stopped  atomic.Bool  // set by the first failure
		mu       sync.Mutex
		errAt    = n // lowest failed trial index; n while none failed
		firstErr error
		wg       sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stopped.Load() {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				v, err := runTrial(p, i, job)
				if err != nil {
					mu.Lock()
					if i < errAt {
						errAt, firstErr = i, err
					}
					mu.Unlock()
					stopped.Store(true)
					return
				}
				// Each index is owned by exactly one worker; wg.Wait below
				// publishes the write to the caller.
				results[i] = v
			}
		}()
	}
	wg.Wait()
	return results, firstErr
}

// runTrial invokes one job with progress reporting and panic containment.
func runTrial[T any](p Pool, i int, job Job[T]) (v T, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("trial %d panicked: %v", i, r)
		}
	}()
	if p.Progress != nil {
		p.Progress(i)
	}
	return job(i)
}
