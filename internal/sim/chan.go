package sim

// Chan is a simulated channel with Go channel semantics: unbuffered channels
// rendezvous sender and receiver, buffered channels decouple them up to the
// capacity, and receives on a closed channel drain the buffer and then
// report !ok. All operations take effect in deterministic engine order.
type Chan[T any] struct {
	e      *engine
	label  string
	cap    int
	buf    []T
	sendQ  []*chanWaiter[T]
	recvQ  []*chanWaiter[T]
	closed bool
}

// SetLabel names the channel for deadlock reports and returns it
// (chainable).
func (c *Chan[T]) SetLabel(s string) *Chan[T] {
	c.label = s
	return c
}

type chanWaiter[T any] struct {
	p      *Proc
	val    T
	ok     bool
	closed bool
}

// NewChan returns a channel with the given buffer capacity (0 = unbuffered).
func NewChan[T any](e Engine, capacity int) *Chan[T] {
	if capacity < 0 {
		capacity = 0
	}
	return &Chan[T]{e: e, cap: capacity}
}

// Len returns the number of buffered elements.
func (c *Chan[T]) Len() int { return len(c.buf) }

// Cap returns the buffer capacity.
func (c *Chan[T]) Cap() int { return c.cap }

// Send delivers v, blocking p until a receiver or buffer slot is available.
// Sending on a closed channel panics, as with native channels.
func (c *Chan[T]) Send(p *Proc, v T) {
	if c.closed {
		panic("sim: send on closed channel")
	}
	if len(c.recvQ) > 0 {
		w := c.recvQ[0]
		c.recvQ = c.recvQ[1:]
		w.val, w.ok = v, true
		w.p.wake()
		return
	}
	if len(c.buf) < c.cap {
		c.buf = append(c.buf, v)
		return
	}
	w := &chanWaiter[T]{p: p, val: v}
	c.sendQ = append(c.sendQ, w)
	p.SetWaitInfo("chan-send", c.label)
	p.park()
	if w.closed {
		panic("sim: send on closed channel")
	}
}

// TrySend delivers v without blocking, reporting whether it was accepted.
func (c *Chan[T]) TrySend(v T) bool {
	if c.closed {
		panic("sim: send on closed channel")
	}
	if len(c.recvQ) > 0 {
		w := c.recvQ[0]
		c.recvQ = c.recvQ[1:]
		w.val, w.ok = v, true
		w.p.wake()
		return true
	}
	if len(c.buf) < c.cap {
		c.buf = append(c.buf, v)
		return true
	}
	return false
}

// Recv blocks p until a value is available. ok is false only when the
// channel is closed and drained.
func (c *Chan[T]) Recv(p *Proc) (v T, ok bool) {
	if len(c.buf) > 0 {
		v = c.buf[0]
		c.buf = c.buf[1:]
		c.admitSender()
		return v, true
	}
	if len(c.sendQ) > 0 {
		// Unbuffered rendezvous (or cap consumed entirely by waiters).
		w := c.sendQ[0]
		c.sendQ = c.sendQ[1:]
		w.p.wake()
		return w.val, true
	}
	if c.closed {
		return v, false
	}
	w := &chanWaiter[T]{p: p}
	c.recvQ = append(c.recvQ, w)
	p.SetWaitInfo("chan-recv", c.label)
	p.park()
	return w.val, w.ok
}

// TryRecv receives without blocking. ok is false when no value is ready or
// the channel is closed and drained.
func (c *Chan[T]) TryRecv() (v T, ok bool) {
	if len(c.buf) > 0 {
		v = c.buf[0]
		c.buf = c.buf[1:]
		c.admitSender()
		return v, true
	}
	if len(c.sendQ) > 0 {
		w := c.sendQ[0]
		c.sendQ = c.sendQ[1:]
		w.p.wake()
		return w.val, true
	}
	return v, false
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

// Close closes the channel. Pending receivers wake with ok=false; pending
// senders panic, matching native channel semantics.
func (c *Chan[T]) Close() {
	if c.closed {
		panic("sim: close of closed channel")
	}
	c.closed = true
	for _, w := range c.recvQ {
		w.ok = false
		w.p.wake()
	}
	c.recvQ = nil
	for _, w := range c.sendQ {
		w.closed = true
		w.p.wake()
	}
	c.sendQ = nil
}
