package bench

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// TestCells checks the cell runner's contract on every worker count the
// suite can see: each cell runs exactly once, all have finished when it
// returns, the lowest failing index wins however the cells interleave, and
// a panic reaches the caller.
func TestCells(t *testing.T) {
	for _, procs := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))

			for _, n := range []int{0, 1, 7, 64} {
				var ran atomic.Int64
				seen := make([]int, n)
				if err := cells(n, func(i int) error {
					time.Sleep(time.Duration(i%3) * 100 * time.Microsecond)
					seen[i]++
					ran.Add(1)
					return nil
				}); err != nil {
					t.Fatalf("n=%d: %v", n, err)
				}
				if ran.Load() != int64(n) {
					t.Fatalf("n=%d: %d cells had run when cells returned", n, ran.Load())
				}
				for i, c := range seen {
					if c != 1 {
						t.Fatalf("n=%d: cell %d ran %d times", n, i, c)
					}
				}
			}

			// Cell 5 fails at once; cell 2 fails only after a later cell has
			// failed, and still wins.
			errLow, errHigh := errors.New("cell 2"), errors.New("cell 5")
			var done atomic.Int64
			err := cells(8, func(i int) error {
				defer done.Add(1)
				switch i {
				case 2:
					time.Sleep(5 * time.Millisecond)
					return errLow
				case 5:
					return errHigh
				}
				return nil
			})
			if err != errLow {
				t.Fatalf("err = %v, want the lowest failing index's %v", err, errLow)
			}
			if done.Load() != 8 {
				t.Fatalf("%d of 8 cells had finished when cells returned an error", done.Load())
			}

			for _, n := range []int{1, 6} {
				func() {
					defer func() {
						if r := recover(); r != "boom" {
							t.Fatalf("n=%d: recovered %v, want the cell's panic", n, r)
						}
					}()
					_ = cells(n, func(i int) error {
						if i == n-1 {
							panic("boom")
						}
						return errHigh
					})
					t.Fatalf("n=%d: cells returned past a panicking cell", n)
				}()
			}
		})
	}
}
