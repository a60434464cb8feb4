package workload

import "repro/internal/osi"

// Broadcast, for the tests, wakes one waiter and requeues the rest onto the mutex, so they
// wake one at a time as the lock is handed over.
func (c *FutexCond) Broadcast(t osi.Thread) error {
	newSeq, err := t.FetchAdd(c.seq, 1)
	if err != nil {
		return err
	}
	_, _, err = t.FutexRequeue(c.seq, c.m.word, newSeq+1, 1, 1<<30)
	if err != nil && !isWouldBlock(err) {
		return err
	}
	return nil
}
