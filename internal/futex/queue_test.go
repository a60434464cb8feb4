package futex

import (
	"errors"
	"slices"
	"testing"
)

// TestQueue drives one word's queue of waiters A B C, and a second word's
// queue holding Z, through wakes and requeues with negative, zero and
// over-length counts, onto the other queue and onto itself.
func TestQueue(t *testing.T) {
	for _, tc := range []struct {
		name          string
		wakeOnly      bool // Wake(wake) rather than Requeue
		self          bool // requeue onto the queue the waiters wait on
		val           int64
		wake, requeue int
		woken         []string
		moved         int
		err           error
		from, to      []string
	}{
		{name: "wake none", wakeOnly: true, from: []string{"A", "B", "C"}, to: []string{"Z"}},
		{name: "wake negative", wakeOnly: true, wake: -1, from: []string{"A", "B", "C"}, to: []string{"Z"}},
		{name: "wake two", wakeOnly: true, wake: 2, woken: []string{"A", "B"}, from: []string{"C"}, to: []string{"Z"}},
		{name: "wake past the end", wakeOnly: true, wake: 9, woken: []string{"A", "B", "C"}, to: []string{"Z"}},
		{name: "negative counts", wake: -1, requeue: -5, from: []string{"A", "B", "C"}, to: []string{"Z"}},
		{name: "zero counts", from: []string{"A", "B", "C"}, to: []string{"Z"}},
		{name: "changed word", val: 1, wake: 1, requeue: 1, err: ErrWouldBlock, from: []string{"A", "B", "C"}, to: []string{"Z"}},
		{name: "requeue one", wake: 1, requeue: 1, woken: []string{"A"}, moved: 1, from: []string{"C"}, to: []string{"Z", "B"}},
		{name: "requeue past the end", wake: 1, requeue: 10, woken: []string{"A"}, moved: 2, to: []string{"Z", "B", "C"}},
		{name: "requeue only", wake: -3, requeue: 2, moved: 2, from: []string{"C"}, to: []string{"Z", "A", "B"}},
		{name: "onto itself", self: true, wake: 0, requeue: 1, moved: 1, from: []string{"B", "C", "A"}},
		{name: "onto itself past the end", self: true, wake: 1, requeue: 10, woken: []string{"A"}, moved: 2, from: []string{"B", "C"}},
		{name: "onto itself, huge count", self: true, requeue: 1 << 30, moved: 3, from: []string{"A", "B", "C"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			from := &Queue[string]{}
			to := &Queue[string]{ws: []string{"Z"}}
			for _, w := range []string{"A", "B", "C"} {
				if err := from.Wait(w, 0, 0); err != nil {
					t.Fatalf("Wait(%s): %v", w, err)
				}
			}
			if tc.self {
				to = from
			}
			var woken []string
			var moved int
			var err error
			if tc.wakeOnly {
				woken = from.Wake(nil, tc.wake)
			} else {
				woken, moved, err = from.Requeue(nil, to, tc.val, 0, tc.wake, tc.requeue)
			}
			if !errors.Is(err, tc.err) || moved != tc.moved || !slices.Equal(woken, tc.woken) {
				t.Fatalf("woken %v, moved %d, err %v; want %v, %d, %v", woken, moved, err, tc.woken, tc.moved, tc.err)
			}
			if !slices.Equal(from.ws, tc.from) || !tc.self && !slices.Equal(to.ws, tc.to) {
				t.Fatalf("queues %v, %v; want %v, %v", from.ws, to.ws, tc.from, tc.to)
			}
		})
	}
}

// TestQueueWaitChecksWord refuses a waiter whose word changed, and queues
// the rest in arrival order.
func TestQueueWaitChecksWord(t *testing.T) {
	var q Queue[int]
	if err := q.Wait(1, 0, 0); err != nil {
		t.Fatalf("Wait on unchanged word: %v", err)
	}
	if err := q.Wait(2, 1, 0); !errors.Is(err, ErrWouldBlock) {
		t.Fatalf("Wait on changed word = %v, want ErrWouldBlock", err)
	}
	if err := q.Wait(3, 7, 7); err != nil {
		t.Fatalf("Wait on unchanged word: %v", err)
	}
	if !slices.Equal(q.Wake(nil, 5), []int{1, 3}) || len(q.ws) != 0 {
		t.Fatalf("queue after wake-all holds %v", q.ws)
	}
}
