package msg

import (
	"math/rand"
	"testing"
)

// TestFifoMatchesSliceModel drives fifo and a plain slice through the same
// random push/pop traces — bursts that drain, bursts that do not — and
// requires the same items in the same order, the same length and the same
// front at every step.
func TestFifoMatchesSliceModel(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var q fifo[int]
		var model []int
		next := 0
		for step := 0; step < 5000; step++ {
			// Lean towards pushing for a while, then towards popping, so the
			// queue both builds a backlog and drains to empty many times.
			pushBias := 3
			if (step/200)%2 == 1 {
				pushBias = 1
			}
			if len(model) == 0 || rng.Intn(4) < pushBias {
				q.push(next)
				model = append(model, next)
				next++
			} else {
				got, want := q.pop(), model[0]
				model = model[1:]
				if got != want {
					t.Fatalf("seed %d step %d: pop = %d, model says %d", seed, step, got, want)
				}
			}
			if q.len() != len(model) {
				t.Fatalf("seed %d step %d: len = %d, model says %d", seed, step, q.len(), len(model))
			}
			if len(model) > 0 && q.front() != model[0] {
				t.Fatalf("seed %d step %d: front = %d, model says %d", seed, step, q.front(), model[0])
			}
		}
	}
}

// TestFifoReusesCapacity pins what the queue is for: a backlog that keeps
// draining never reslices off its array, so it stops allocating once the
// array fits the largest burst, and a popped slot holds no reference.
func TestFifoReusesCapacity(t *testing.T) {
	var q fifo[*int]
	for round := 0; round < 1000; round++ {
		for i := 0; i < 3; i++ {
			q.push(new(int))
		}
		for q.len() > 0 {
			q.pop()
		}
		if q.head != 0 || len(q.items) != 0 {
			t.Fatalf("round %d: drained queue not compacted: head=%d len=%d", round, q.head, len(q.items))
		}
	}
	if cap(q.items) > 4 {
		t.Fatalf("capacity grew to %d over bursts of 3; the drained array is not being reused", cap(q.items))
	}
	for i, p := range q.items[:cap(q.items)] {
		if p != nil {
			t.Fatalf("slot %d still references a popped item", i)
		}
	}
	q.push(new(int))
	if allocs := testing.AllocsPerRun(100, func() { q.push(q.pop()) }); allocs != 0 {
		t.Fatalf("steady-state push/pop allocates %.1f per round, want 0", allocs)
	}
}

// TestFifoBacklogNeverDrainingStaysBounded holds a steady backlog of k — the
// queue never empties, so pop never gets to reset it — through 10⁵ push/pop
// pairs: the array must stay within twice the backlog, stop allocating, and
// keep no reference to a popped item.
func TestFifoBacklogNeverDrainingStaysBounded(t *testing.T) {
	for _, k := range []int{1, 3, 64, 100, 1000} {
		var q fifo[*int]
		for i := 0; i < k; i++ {
			q.push(new(int))
		}
		for i := 0; i < 100_000; i++ {
			q.push(new(int))
			q.pop()
			if cap(q.items) > 2*k {
				t.Fatalf("backlog %d, pair %d: capacity %d, want <= %d", k, i, cap(q.items), 2*k)
			}
		}
		if allocs := testing.AllocsPerRun(1000, func() { q.push(q.pop()) }); allocs != 0 {
			t.Fatalf("backlog %d: steady push/pop allocates %.1f per pair, want 0", k, allocs)
		}
		live := 0
		for _, p := range q.items[:cap(q.items)] {
			if p != nil {
				live++
			}
		}
		if live != q.len() {
			t.Fatalf("backlog %d: %d slots reference items, %d queued", k, live, q.len())
		}
	}
}
