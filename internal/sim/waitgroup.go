package sim

// WaitGroup is a simulated analogue of sync.WaitGroup: processes block in
// Wait until the counter returns to zero. The zero value is ready to use, so
// an owner can embed one; waiting allocates nothing (see waitq).
type WaitGroup struct {
	n int
	q waitq
}

// NewWaitGroup returns a WaitGroup with a zero counter.
func NewWaitGroup() *WaitGroup { return &WaitGroup{} }

// Add adds delta to the counter. Panics if the counter goes negative. When
// the counter reaches zero, all waiters wake.
func (wg *WaitGroup) Add(delta int) {
	wg.n += delta
	if wg.n < 0 {
		panic("sim: negative WaitGroup counter")
	}
	if wg.n == 0 {
		wg.q.wakeAll()
	}
}

// Done decrements the counter by one.
func (wg *WaitGroup) Done() { wg.Add(-1) }

// Wait blocks p until the counter is zero.
func (wg *WaitGroup) Wait(p *Proc) {
	if wg.n == 0 {
		return
	}
	wg.q.push(p)
	p.setWaitInfo("waitgroup", "")
	p.park()
}

// Cond is a simulated condition variable tied to caller-managed state.
// Unlike sync.Cond there is no associated lock: the simulator's run-to-block
// execution makes checks and waits atomic with respect to other processes.
// The zero value is ready to use, so an owner can embed one; waiting
// allocates nothing (see waitq).
type Cond struct {
	q waitq
}

// NewCond returns an empty condition variable.
func NewCond() *Cond { return &Cond{} }

// Wait parks p until Signal or Broadcast wakes it. Callers must re-check
// their predicate after waking, as with any condition variable.
func (c *Cond) Wait(p *Proc) {
	c.q.push(p)
	p.setWaitInfo("cond", "")
	p.park()
}

// Signal wakes the oldest waiter, if any.
func (c *Cond) Signal() {
	if c.q.n > 0 {
		c.q.pop().wake()
	}
}

// Broadcast wakes all waiters.
func (c *Cond) Broadcast() { c.q.wakeAll() }
