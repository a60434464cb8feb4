package sim

import "time"

// LockStats records contention observed on a simulated lock. The zone lock
// is the one lock counted this way: kernel.LockedFrames books it around its
// own Lock and Unlock calls. Neither Mutex nor RWMutex counts anything:
// records made per page hold a Mutex by value, counters would be most of its
// size, and an RWMutex is taken once per fault; a caller that wants a
// lock's contention counts it at its own lock sites.
type LockStats struct {
	// Acquisitions is the total number of successful lock acquisitions.
	Acquisitions uint64
	// Contended counts acquisitions that had to wait.
	Contended uint64
	// TotalWait is the summed virtual time spent waiting for the lock.
	TotalWait time.Duration
	// MaxWait is the longest single wait.
	MaxWait time.Duration
	// TotalHold is the summed virtual time the lock was held.
	TotalHold time.Duration
	// MaxQueue is the deepest waiter queue observed.
	MaxQueue int
}

// waitq is the one FIFO of blocked processes behind Mutex, RWMutex, Cond and
// WaitGroup. It is intrusive: the link, and what a lock keeps per waiter
// (granted), live in the Proc — a process waits in at most one queue —
// so blocking allocates nothing and the zero value is an empty queue. An entry
// leaves only by pop: a process killed while queued stays linked (hence Start
// refuses its storage), and a later pop hands it whatever was being handed out.
type waitq struct {
	head, tail *Proc
	n          int
}

// push links p behind the earlier waiters.
//
//popcornvet:hotpath
func (q *waitq) push(p *Proc) {
	if p.queued {
		panic("sim: process blocks while still queued on another primitive")
	}
	p.queued = true
	if q.tail == nil {
		q.head = p
	} else {
		q.tail.wnext = p
	}
	q.tail = p
	q.n++
}

// pop unlinks and returns the oldest waiter; the queue must not be empty.
//
//popcornvet:hotpath
func (q *waitq) pop() *Proc {
	p := q.head
	if q.head = p.wnext; q.head == nil {
		q.tail = nil
	}
	p.wnext, p.queued = nil, false
	q.n--
	return p
}

// wakeAll wakes every waiter, oldest first.
func (q *waitq) wakeAll() {
	for q.n > 0 {
		q.pop().wake()
	}
}

// holder is a lock as its waiters record it (Proc.waitLock): a report asks who
// holds it then, so a hand-off touches none of the processes still queued.
type holder interface{ holder() *Proc }

// wait queues p on q for lock l. The caller parks it next, in its own frame: a
// blocked process's stack is as deep as its deepest wait.
func (e *engine) wait(q *waitq, p *Proc, kind, label string, l holder) {
	p.granted = false
	q.push(p)
	p.setWaitInfo(kind, label)
	p.waitLock = l
}

// granted reports the contended acquisition of l by p, just resumed.
func (e *engine) granted(p *Proc, l holder) {
	if !p.granted {
		panic("sim: lock waiter woken without grant")
	}
	e.observeAcquire(p, l)
}

// grant pops q's oldest waiter as the lock's next holder and wakes it.
func (q *waitq) grant() *Proc {
	p := q.pop()
	p.granted = true
	p.wake()
	return p
}

// Mutex is a simulated mutual-exclusion lock with FIFO handoff: its label,
// its owner and its queue, 48 bytes. Waiting for it allocates nothing (see
// waitq). The zero value is an unlocked mutex: it works on whichever engine
// runs the process that locks it, so a record can hold one by value.
type Mutex struct {
	label string
	owner *Proc
	q     waitq
}

// NewMutex returns an unlocked mutex. The engine is the one its lockers run
// on; the mutex itself keeps no reference to it.
func NewMutex(Engine) *Mutex { return &Mutex{} }

// SetLabel names the mutex for deadlock reports and returns it (chainable).
func (m *Mutex) SetLabel(s string) *Mutex {
	m.label = s
	return m
}

func (m *Mutex) holder() *Proc { return m.owner }

// Lock acquires the mutex, blocking p in FIFO order behind earlier waiters.
func (m *Mutex) Lock(p *Proc) {
	if m.tryLock(p) {
		return
	}
	if m.owner == p {
		panic("sim: recursive Mutex.Lock by owner " + p.name)
	}
	p.e.wait(&m.q, p, "mutex", m.label, m)
	p.park()
	p.e.granted(p, m)
}

// tryLock acquires the mutex if it is free, reporting success.
func (m *Mutex) tryLock(p *Proc) bool {
	if m.owner != nil {
		return false
	}
	m.owner = p
	p.e.observeAcquire(p, m)
	return true
}

// Unlock releases the mutex, handing ownership to the oldest waiter.
func (m *Mutex) Unlock(p *Proc) {
	if m.owner != p {
		panic("sim: Mutex.Unlock by non-owner")
	}
	p.e.observeRelease(p, m)
	if m.q.n == 0 {
		m.owner = nil
		return
	}
	m.owner = m.q.grant()
}

// Waiters returns the current queue depth.
func (m *Mutex) Waiters() int { return m.q.n }

// RWMutex is a simulated reader-writer lock with writer preference: once a
// writer queues, new readers wait behind it. This mirrors the Linux
// rw_semaphore behaviour that makes mmap_sem a scalability bottleneck.
type RWMutex struct {
	e             *engine
	label         string
	readers       int
	writer        *Proc
	readQ, writeQ waitq
}

// NewRWMutex returns an unlocked reader-writer lock on e.
func NewRWMutex(e Engine) *RWMutex { return &RWMutex{e: e} }

// SetLabel names the lock for deadlock reports and returns it (chainable).
func (l *RWMutex) SetLabel(s string) *RWMutex {
	l.label = s
	return l
}

func (l *RWMutex) holder() *Proc { return l.writer }

// RLock acquires the lock shared. It blocks while a writer holds the lock or
// is queued ahead.
func (l *RWMutex) RLock(p *Proc) {
	if l.writer == nil && l.writeQ.n == 0 {
		l.readers++
		l.e.observeAcquire(p, l)
		return
	}
	l.e.wait(&l.readQ, p, "rwmutex", l.label, l)
	p.park()
	l.e.granted(p, l)
}

// RUnlock releases a shared hold.
func (l *RWMutex) RUnlock(p *Proc) {
	if l.readers <= 0 {
		panic("sim: RUnlock with no readers")
	}
	l.e.observeRelease(p, l)
	l.readers--
	if l.readers == 0 {
		l.promote()
	}
}

// Lock acquires the lock exclusive.
func (l *RWMutex) Lock(p *Proc) {
	if l.writer == nil && l.readers == 0 {
		l.writer = p
		l.e.observeAcquire(p, l)
		return
	}
	if l.writer == p {
		panic("sim: recursive RWMutex.Lock by owner " + p.name)
	}
	l.e.wait(&l.writeQ, p, "rwmutex", l.label, l)
	p.park()
	l.e.granted(p, l)
}

// Unlock releases an exclusive hold.
func (l *RWMutex) Unlock(p *Proc) {
	if l.writer != p {
		panic("sim: RWMutex.Unlock by non-owner")
	}
	l.e.observeRelease(p, l)
	l.writer = nil
	l.promote()
}

// promote hands the lock to the next writer, or to all queued readers if no
// writer waits.
func (l *RWMutex) promote() {
	if l.writeQ.n > 0 {
		l.writer = l.writeQ.grant()
		return
	}
	for l.readQ.n > 0 {
		l.readQ.grant()
		l.readers++
	}
}

// Waiters returns the current total queue depth (readers + writers).
func (l *RWMutex) Waiters() int { return l.readQ.n + l.writeQ.n }
