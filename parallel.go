package dxbar

import (
	"errors"
	"runtime"
	"sync"
)

// RunMany executes a batch of independent simulations on a worker pool and
// returns results in input order. workers <= 0 uses GOMAXPROCS. Each
// simulation is single-threaded and deterministic, so batch-level
// parallelism is the natural way to use many cores for sweeps; every figure
// generator routes through RunMany.
//
// Each worker goroutine owns one runner, so engines (and their flit pools,
// latches and router scratch) are recycled across the jobs it processes —
// the per-run allocation cost is paid once per worker, not once per config.
// Reuse does not change results: a recycled engine is bit-identical to a
// fresh one for the same config and seed.
//
// An error in one config aborts nothing — every run completes. Failed
// configs leave a zero-valued Result at their index, and all errors are
// combined with errors.Join (nil when every run succeeded); use
// errors.Is/As to inspect individual causes.
func RunMany(configs []Config, workers int) ([]Result, error) {
	return runPool(configs, workers, (*runner).run, nil)
}

// RunManySplash is RunMany for the closed-loop coherence workloads: worker
// goroutines with per-worker engine reuse, zero-valued results for failed
// configs, and an errors.Join-combined error.
func RunManySplash(configs []SplashConfig, workers int) ([]SplashResult, error) {
	return runPool(configs, workers, (*runner).runSplash, nil)
}

// runPool is the worker pool behind RunMany and RunManySplash: run(r, c) for
// every config on min(workers, len(configs)) goroutines, each with a runner
// of its own, results and errors in input order, done (when non-nil) called
// from the worker after every job.
func runPool[C, R any](configs []C, workers int, run func(*runner, C) (R, error), done func()) ([]R, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(configs) {
		workers = len(configs)
	}
	results := make([]R, len(configs))
	errs := make([]error, len(configs))
	if len(configs) == 0 {
		return results, nil
	}

	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := newRunner()
			for i := range jobs {
				results[i], errs[i] = run(r, configs[i])
				if done != nil {
					done()
				}
			}
		}()
	}
	for i := range configs {
		jobs <- i
	}
	close(jobs)
	wg.Wait()

	return results, errors.Join(errs...)
}
