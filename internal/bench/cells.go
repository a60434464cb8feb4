package bench

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// cells runs run(0) … run(n-1), each on a machine of its own, over up to
// GOMAXPROCS host goroutines, taking indexes in ascending order. A cell
// writes its result into its own slot, so the caller merges by index and
// the output does not depend on which cell finished first. Every cell has
// finished when cells returns. A panicking cell is re-raised on the caller
// (the lowest-index panic, ahead of any error); otherwise the result is the
// error of the lowest failing index. GOMAXPROCS=1 is the serial run.
func cells(n int, run func(i int) error) error {
	errs := make([]error, n)
	panics := make([]any, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), n); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				errs[i], panics[i] = runCell(run, i)
			}
		}()
	}
	wg.Wait()
	for _, p := range panics {
		if p != nil {
			panic(p)
		}
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// runCell runs one cell, turning a panic into a value cells re-raises.
func runCell(run func(i int) error, i int) (err error, panicked any) {
	defer func() { panicked = recover() }()
	return run(i), nil
}
