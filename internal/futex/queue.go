package futex

// Queue is one futex word's waiters in arrival order: the one place that
// decides which waiters a wait queues, a wake releases and a requeue moves,
// for the replicated kernel's home buckets and smp's hash table alike. Its
// owner serialises every call under the word's lock and releases what a
// call detaches as its own model does.
type Queue[W any] struct{ ws []W }

// Wait queues w at the tail if val, the word as read under the owner's lock,
// still holds expect; otherwise it returns ErrWouldBlock.
func (q *Queue[W]) Wait(w W, val, expect int64) error {
	if val != expect {
		return ErrWouldBlock
	}
	q.ws = append(q.ws, w)
	return nil
}

// Wake detaches the first n waiters (none when n <= 0), appends them to out
// and returns it: a requeue of none that finds the word unchanged.
func (q *Queue[W]) Wake(out []W, n int) []W {
	out, _, _ = q.Requeue(out, q, 0, 0, n, 0)
	return out
}

// Requeue is FUTEX_CMP_REQUEUE's queue edit: if val still holds expect,
// detach up to wake waiters onto out, then move up to requeue of the rest, in
// order, to to's tail. It returns out and the number moved, or ErrWouldBlock
// with nothing detached. The rest slide down in place; when to is q the moved
// ones are appended before the slide, so they land behind the rest and each
// waiter moves at most once.
func (q *Queue[W]) Requeue(out []W, to *Queue[W], val, expect int64, wake, requeue int) ([]W, int, error) {
	if val != expect {
		return out, 0, ErrWouldBlock
	}
	w := min(max(wake, 0), len(q.ws))
	m := min(max(requeue, 0), len(q.ws)-w)
	out = append(out, q.ws[:w]...)
	to.ws = append(to.ws, q.ws[w:w+m]...)
	n := copy(q.ws, q.ws[w+m:])
	clear(q.ws[n:])
	q.ws = q.ws[:n]
	return out, m, nil
}
