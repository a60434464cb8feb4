package sim

// Chan is a simulated channel with Go channel semantics: unbuffered channels
// rendezvous sender and receiver, buffered channels decouple them up to the
// capacity. All operations take effect in deterministic engine order.
type Chan[T any] struct {
	cap   int
	buf   []T
	sendQ []*chanWaiter[T]
	recvQ []*chanWaiter[T]
}

type chanWaiter[T any] struct {
	p   *Proc
	val T
}

// NewChan returns a channel with the given buffer capacity (0 = unbuffered).
// The engine is not needed: a channel reaches it through the procs it parks.
func NewChan[T any](_ Engine, capacity int) *Chan[T] {
	return &Chan[T]{cap: max(capacity, 0)}
}

// Send delivers v, blocking p until a receiver or buffer slot is available.
func (c *Chan[T]) Send(p *Proc, v T) {
	if len(c.recvQ) > 0 {
		w := c.recvQ[0]
		c.recvQ = c.recvQ[1:]
		w.val = v
		w.p.wake()
		return
	}
	if len(c.buf) < c.cap {
		c.buf = append(c.buf, v)
		return
	}
	c.sendQ = append(c.sendQ, &chanWaiter[T]{p: p, val: v})
	p.setWaitInfo("chan-send", "")
	p.park()
}

// Recv blocks p until a value is available.
func (c *Chan[T]) Recv(p *Proc) T {
	if len(c.buf) > 0 {
		v := c.buf[0]
		c.buf = c.buf[1:]
		c.admitSender()
		return v
	}
	if len(c.sendQ) > 0 {
		// Unbuffered rendezvous (or cap consumed entirely by waiters).
		w := c.sendQ[0]
		c.sendQ = c.sendQ[1:]
		w.p.wake()
		return w.val
	}
	w := &chanWaiter[T]{p: p}
	c.recvQ = append(c.recvQ, w)
	p.setWaitInfo("chan-recv", "")
	p.park()
	return w.val
}

// admitSender moves a blocked sender's value into a freed buffer slot.
func (c *Chan[T]) admitSender() {
	if len(c.sendQ) == 0 || len(c.buf) >= c.cap {
		return
	}
	w := c.sendQ[0]
	c.sendQ = c.sendQ[1:]
	c.buf = append(c.buf, w.val)
	w.p.wake()
}
