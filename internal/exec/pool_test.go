package exec

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestRunPreservesOrder checks that results land by trial index even when
// trials complete in scrambled order.
func TestRunPreservesOrder(t *testing.T) {
	const n = 64
	results, err := Run(Pool{Workers: 8}, n, func(i int) (int, error) {
		// Earlier trials sleep longer, so completion order inverts
		// submission order within each worker batch.
		time.Sleep(time.Duration((n-i)%7) * time.Millisecond)
		return i * i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != n {
		t.Fatalf("got %d results, want %d", len(results), n)
	}
	for i, v := range results {
		if v != i*i {
			t.Fatalf("results[%d] = %d, want %d", i, v, i*i)
		}
	}
}

// TestRunSequentialFastPath checks that Workers=1 runs trials in order on
// one goroutine and stops at the first error, like a plain loop.
func TestRunSequentialFastPath(t *testing.T) {
	var order []int
	boom := errors.New("boom")
	results, err := Run(Pool{Workers: 1}, 5, func(i int) (int, error) {
		order = append(order, i) // safe: single goroutine by contract
		if i == 3 {
			return 0, boom
		}
		return i + 1, nil
	})
	if err != boom {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	wantOrder := []int{0, 1, 2, 3}
	if fmt.Sprint(order) != fmt.Sprint(wantOrder) {
		t.Fatalf("execution order %v, want %v (trial 4 must not start)", order, wantOrder)
	}
	for i, want := range []int{1, 2, 3, 0, 0} {
		if results[i] != want {
			t.Fatalf("results[%d] = %d, want %d", i, results[i], want)
		}
	}
}

// TestRunCancelsOnFirstError checks that one failing trial stops the
// remaining trials from starting and that its error is the one reported.
func TestRunCancelsOnFirstError(t *testing.T) {
	boom := errors.New("boom")
	var started atomic.Int64
	const n = 1000
	_, err := Run(Pool{Workers: 4}, n, func(i int) (int, error) {
		started.Add(1)
		if i == 2 {
			return 0, boom
		}
		time.Sleep(2 * time.Millisecond) // a long trial
		return i, nil
	})
	if err != boom {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if got := started.Load(); got == n {
		t.Fatalf("all %d trials started despite early failure", n)
	}
}

// TestRunReportsLowestIndexError checks that when several trials fail the
// lowest index's error comes back: trial 0 is always claimed first, so it
// always runs and fails.
func TestRunReportsLowestIndexError(t *testing.T) {
	for _, workers := range []int{1, 4} {
		_, err := Run(Pool{Workers: workers}, 16, func(i int) (int, error) {
			return 0, fmt.Errorf("fail %d", i)
		})
		if err == nil || err.Error() != "fail 0" {
			t.Fatalf("workers=%d: err = %v, want fail 0", workers, err)
		}
	}
}

// TestRunRecoversPanic checks that a panicking job surfaces as that
// trial's error instead of crashing the process.
func TestRunRecoversPanic(t *testing.T) {
	for _, workers := range []int{1, 4} {
		_, err := Run(Pool{Workers: workers}, 8, func(i int) (int, error) {
			if i == 5 {
				panic("kaboom")
			}
			return i, nil
		})
		if err == nil || err.Error() != "trial 5 panicked: kaboom" {
			t.Fatalf("workers=%d: err = %v, want trial 5's panic", workers, err)
		}
	}
}

// TestRunProgressCoversAllTrials checks the progress callback fires once
// per trial and tolerates concurrent invocation.
func TestRunProgressCoversAllTrials(t *testing.T) {
	const n = 100
	var mu sync.Mutex
	seen := make(map[int]int)
	p := Pool{Workers: 8, Progress: func(i int) {
		mu.Lock()
		seen[i]++
		mu.Unlock()
	}}
	if _, err := Run(p, n, func(i int) (struct{}, error) {
		return struct{}{}, nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(seen) != n {
		t.Fatalf("progress covered %d trials, want %d", len(seen), n)
	}
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("trial %d reported %d times", i, c)
		}
	}
}

// TestRunZeroAndNegative covers the degenerate trial counts.
func TestRunZeroAndNegative(t *testing.T) {
	results, err := Run(Pool{}, 0, func(i int) (int, error) {
		t.Fatal("job invoked for n=0")
		return 0, nil
	})
	if err != nil || len(results) != 0 {
		t.Fatalf("n=0: results=%v err=%v", results, err)
	}
	if _, err := Run(Pool{}, -1, func(i int) (int, error) {
		return 0, nil
	}); err == nil {
		t.Fatal("negative trial count accepted")
	}
}

// TestRunDefaultWorkers checks Workers<=0 still executes every trial.
func TestRunDefaultWorkers(t *testing.T) {
	results, err := Run(Pool{Workers: -3}, 10, func(i int) (int, error) {
		return i + 100, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range results {
		if v != i+100 {
			t.Fatalf("results[%d] = %d", i, v)
		}
	}
}
