package bench

import (
	"runtime"
	"testing"
)

// TestExperimentsAreDeterministic regenerates experiments on one host
// worker and on four and requires the same output at full precision — the
// property that makes every number in EXPERIMENTS.md exactly reproducible,
// however many cores the host gives the cell runner. F5b, F7, R1 and R3
// merge the most cells (R1 and R3 sum them), so a merge-order or
// shared-state bug shows there first.
func TestExperimentsAreDeterministic(t *testing.T) {
	for _, id := range []string{"F4", "T2", "F8", "F5b", "F7", "R1", "R3"} {
		t.Run(id, func(t *testing.T) {
			exp, ok := Find(id)
			if !ok {
				t.Fatalf("experiment %s missing", id)
			}
			var outs [2]string
			for i, procs := range []int{1, 4} {
				prev := runtime.GOMAXPROCS(procs)
				out, err := exp.Run(Quick)
				runtime.GOMAXPROCS(prev)
				if err != nil {
					t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
				}
				outs[i] = render(t, out)
			}
			if outs[0] != outs[1] {
				t.Fatalf("output depends on the worker count:\n--- GOMAXPROCS=1 ---\n%s\n--- GOMAXPROCS=4 ---\n%s", outs[0], outs[1])
			}
		})
	}
}
