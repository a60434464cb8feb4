package sim

import "time"

// LockStats records contention observed on a simulated lock. The replicated
// kernel's whole argument is about lock contention, so every lock counts it.
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

func (s *LockStats) recordWait(w time.Duration) {
	s.Contended++
	s.TotalWait += w
	if w > s.MaxWait {
		s.MaxWait = w
	}
}

// waitq is the one FIFO of blocked processes behind Mutex, RWMutex, Cond and
// WaitGroup. It is intrusive: the link, and what a lock keeps per waiter
// (since, granted), live in the Proc — a process waits in at most one queue —
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
	p.since, p.granted = e.now, false
	q.push(p)
	p.SetWaitInfo(kind, label)
	p.waitLock = l
}

// granted books the contended acquisition of l by p, just resumed.
func (e *engine) granted(p *Proc, l holder, stats *LockStats) {
	if !p.granted {
		panic("sim: lock waiter woken without grant")
	}
	stats.Acquisitions++
	stats.recordWait(e.now.Sub(p.since))
	e.observeAcquire(p, l)
}

// grant pops q's oldest waiter as the lock's next holder and wakes it.
func (q *waitq) grant() *Proc {
	p := q.pop()
	p.granted = true
	p.wake()
	return p
}

// Mutex is a simulated mutual-exclusion lock with FIFO handoff and
// contention accounting. Waiting for it allocates nothing (see waitq).
type Mutex struct {
	e          *engine
	label      string
	owner      *Proc
	q          waitq
	acquiredAt Time
	stats      LockStats
}

// NewMutex returns an unlocked mutex on e.
func NewMutex(e Engine) *Mutex { return &Mutex{e: e} }

// SetLabel names the mutex for deadlock reports and returns it (chainable).
func (m *Mutex) SetLabel(s string) *Mutex {
	m.label = s
	return m
}

func (m *Mutex) holder() *Proc { return m.owner }

// Lock acquires the mutex, blocking p in FIFO order behind earlier waiters.
func (m *Mutex) Lock(p *Proc) {
	if m.TryLock(p) {
		return
	}
	if m.owner == p {
		panic("sim: recursive Mutex.Lock by owner " + p.name)
	}
	m.stats.MaxQueue = max(m.stats.MaxQueue, m.q.n+1)
	m.e.wait(&m.q, p, "mutex", m.label, m)
	p.park()
	m.e.granted(p, m, &m.stats)
}

// TryLock acquires the mutex if it is free, reporting success.
func (m *Mutex) TryLock(p *Proc) bool {
	if m.owner != nil {
		return false
	}
	m.owner = p
	m.acquiredAt = m.e.now
	m.stats.Acquisitions++
	m.e.observeAcquire(p, m)
	return true
}

// Unlock releases the mutex, handing ownership to the oldest waiter.
func (m *Mutex) Unlock(p *Proc) {
	if m.owner != p {
		panic("sim: Mutex.Unlock by non-owner")
	}
	m.e.observeRelease(p, m)
	m.stats.TotalHold += m.e.now.Sub(m.acquiredAt)
	if m.q.n == 0 {
		m.owner = nil
		return
	}
	m.owner = m.q.grant()
	m.acquiredAt = m.e.now
}

// Owner returns the process currently holding the mutex, or nil.
func (m *Mutex) Owner() *Proc { return m.owner }

// Locked reports whether the mutex is currently held.
func (m *Mutex) Locked() bool { return m.owner != nil }

// Waiters returns the current queue depth.
func (m *Mutex) Waiters() int { return m.q.n }

// Stats returns a snapshot of the contention counters.
func (m *Mutex) Stats() LockStats { return m.stats }

// RWMutex is a simulated reader-writer lock with writer preference: once a
// writer queues, new readers wait behind it. This mirrors the Linux
// rw_semaphore behaviour that makes mmap_sem a scalability bottleneck.
type RWMutex struct {
	e             *engine
	label         string
	readers       int
	writer        *Proc
	readQ, writeQ waitq
	acquiredAt    Time
	stats         LockStats
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
		if l.readers == 0 {
			l.acquiredAt = l.e.now
		}
		l.readers++
		l.stats.Acquisitions++
		l.e.observeAcquire(p, l)
		return
	}
	l.stats.MaxQueue = max(l.stats.MaxQueue, l.Waiters()+1)
	l.e.wait(&l.readQ, p, "rwmutex", l.label, l)
	p.park()
	l.e.granted(p, l, &l.stats)
}

// RUnlock releases a shared hold.
func (l *RWMutex) RUnlock(p *Proc) {
	if l.readers <= 0 {
		panic("sim: RUnlock with no readers")
	}
	l.e.observeRelease(p, l)
	l.readers--
	if l.readers == 0 {
		l.stats.TotalHold += l.e.now.Sub(l.acquiredAt)
		l.promote()
	}
}

// Lock acquires the lock exclusive.
func (l *RWMutex) Lock(p *Proc) {
	if l.writer == nil && l.readers == 0 {
		l.writer = p
		l.acquiredAt = l.e.now
		l.stats.Acquisitions++
		l.e.observeAcquire(p, l)
		return
	}
	if l.writer == p {
		panic("sim: recursive RWMutex.Lock by owner " + p.name)
	}
	l.stats.MaxQueue = max(l.stats.MaxQueue, l.Waiters()+1)
	l.e.wait(&l.writeQ, p, "rwmutex", l.label, l)
	p.park()
	l.e.granted(p, l, &l.stats)
}

// Unlock releases an exclusive hold.
func (l *RWMutex) Unlock(p *Proc) {
	if l.writer != p {
		panic("sim: RWMutex.Unlock by non-owner")
	}
	l.e.observeRelease(p, l)
	l.stats.TotalHold += l.e.now.Sub(l.acquiredAt)
	l.writer = nil
	l.promote()
}

// promote hands the lock to the next writer, or to all queued readers if no
// writer waits.
func (l *RWMutex) promote() {
	if l.writeQ.n > 0 {
		l.writer = l.writeQ.grant()
		l.acquiredAt = l.e.now
		return
	}
	if l.readQ.n > 0 {
		l.acquiredAt = l.e.now
		for l.readQ.n > 0 {
			l.readQ.grant()
			l.readers++
		}
	}
}

// Stats returns a snapshot of the contention counters.
func (l *RWMutex) Stats() LockStats { return l.stats }

// Waiters returns the current total queue depth (readers + writers).
func (l *RWMutex) Waiters() int { return l.readQ.n + l.writeQ.n }
