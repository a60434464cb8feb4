package sim

import (
	"fmt"
	"strings"
	"time"
)

// WaitInfo describes what a blocked process is waiting for. Blocking
// primitives record it just before parking so that, when the simulation
// deadlocks, the engine can dump a wait-for graph instead of a bare count.
type WaitInfo struct {
	// Kind names the primitive: "mutex", "rwmutex", "chan-send",
	// "chan-recv", "cond", "waitgroup", "rpc-reply", "futex",
	// "suspend".
	Kind string
	// Resource is a human-readable label for the contended object.
	Resource string
	// Holder is the process currently holding the resource, when the
	// primitive knows it (mutex owners); nil otherwise.
	Holder *Proc
}

// setWaitInfo records what the process is about to block on; sim's blocking
// primitives call it (layered ones outside sim use SetWaitLabel). The engine
// clears it when the process resumes.
func (p *Proc) setWaitInfo(kind, resource string) {
	p.waitKind = kind
	p.waitRes = resource
	p.waitLock = nil
	p.waitRender = nil
}

// SetWaitLabel is setWaitInfo for hot-path waits: it records the resource
// label's operands, and render (a plain function, so that recording allocates
// nothing) formats them only if waitingOn or a deadlock report asks.
func (p *Proc) SetWaitLabel(kind string, render func(a, b, c uint64) string, a, b, c uint64) {
	p.waitKind, p.waitLock = kind, nil
	p.waitRender = render
	p.waitArgs = [3]uint64{a, b, c}
}

// waitResource returns the recorded wait's resource label, rendered on demand.
func (p *Proc) waitResource() string {
	if p.waitRender != nil {
		return p.waitRender(p.waitArgs[0], p.waitArgs[1], p.waitArgs[2])
	}
	return p.waitRes
}

// waitingOn returns the recorded wait information, if the process is
// currently blocked with one.
func (p *Proc) waitingOn() (WaitInfo, bool) {
	if p.waitKind == "" {
		return WaitInfo{}, false
	}
	wi := WaitInfo{Kind: p.waitKind, Resource: p.waitResource()}
	if p.waitLock != nil {
		wi.Holder = p.waitLock.holder() // whoever holds it now
	}
	return wi, true
}

func (p *Proc) clearWaitInfo() {
	p.waitKind, p.waitRes, p.waitLock, p.waitRender = "", "", nil, nil
}

// ProcWait is one blocked process in a deadlock report.
type ProcWait struct {
	PID      int64  // engine-assigned process ID of the blocked process
	Name     string // spawn name of the blocked process
	Kind     string // wait kind set via setWaitInfo ("" when the proc never declared one)
	Resource string // contended resource label, paired with Kind
	// HolderPID/HolderName identify the process holding the contended
	// resource, when known (0/"" otherwise).
	HolderPID  int64
	HolderName string // see HolderPID
}

// DeadlockError is returned by Run when blocked processes remain but the
// event heap is empty. It wraps ErrDeadlock (errors.Is works) and carries
// the wait-for graph of every blocked process, plus any wait cycle found
// through resource holders.
type DeadlockError struct {
	At    Time       // simulated time at which the engine stalled
	Waits []ProcWait // one entry per blocked process
	// Cycle lists process names forming a wait cycle through resource
	// holders (first == last), when one exists.
	Cycle []string
}

// Unwrap makes errors.Is(err, ErrDeadlock) hold.
func (e *DeadlockError) Unwrap() error { return ErrDeadlock }

// Error renders the wait-for graph, one blocked process per line, plus the
// wait cycle when one was found.
func (e *DeadlockError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%v (%d blocked) at %v\nwait-for graph:", ErrDeadlock, len(e.Waits), e.At)
	for _, w := range e.Waits {
		fmt.Fprintf(&b, "\n  proc %d %q", w.PID, w.Name)
		if w.Kind == "" {
			b.WriteString(" -> (blocked, wait not recorded)")
		} else {
			fmt.Fprintf(&b, " -> %s", w.Kind)
			if w.Resource != "" {
				fmt.Fprintf(&b, " %q", w.Resource)
			}
			if w.HolderName != "" {
				fmt.Fprintf(&b, " held by proc %d %q", w.HolderPID, w.HolderName)
			}
		}
	}
	if len(e.Cycle) > 0 {
		fmt.Fprintf(&b, "\ncycle: %s", strings.Join(e.Cycle, " -> "))
	}
	return b.String()
}

// buildDeadlockError assembles the wait-for graph at quiescence: every live
// process appears.
//
//popcornvet:coldpath
func (e *engine) buildDeadlockError() *DeadlockError {
	de := &DeadlockError{At: e.now}
	// procsByID already yields ascending PIDs, so Waits needs no re-sort.
	for _, p := range e.procsByID() {
		wi, _ := p.waitingOn()
		w := ProcWait{PID: p.id, Name: p.name, Kind: wi.Kind, Resource: wi.Resource}
		if h := wi.Holder; h != nil {
			w.HolderPID = h.id
			w.HolderName = h.name
		}
		de.Waits = append(de.Waits, w)
	}
	de.Cycle = findWaitCycle(de.Waits)
	return de
}

// findWaitCycle walks proc -> resource-holder edges looking for a cycle.
func findWaitCycle(waits []ProcWait) []string {
	next := make(map[int64]int64, len(waits))
	names := make(map[int64]string, len(waits))
	for _, w := range waits {
		names[w.PID] = w.Name
		if w.HolderPID != 0 {
			next[w.PID] = w.HolderPID
		}
	}
	const (
		unvisited = 0
		inStack   = 1
		done      = 2
	)
	state := make(map[int64]int, len(waits))
	for _, w := range waits {
		if state[w.PID] != unvisited {
			continue
		}
		var path []int64
		cur, ok := w.PID, true
		for ok && state[cur] == unvisited {
			state[cur] = inStack
			path = append(path, cur)
			cur, ok = next[cur]
		}
		if ok && state[cur] == inStack {
			// Trim the path down to the cycle entry point.
			start := 0
			for path[start] != cur {
				start++
			}
			cycle := make([]string, 0, len(path)-start+1)
			for _, pid := range path[start:] {
				cycle = append(cycle, names[pid])
			}
			return append(cycle, names[cur])
		}
		for _, pid := range path {
			state[pid] = done
		}
	}
	return nil
}

// invariant is one registered model-consistency check.
type invariant struct {
	name string
	fn   func() error
}

// Invariant registers a named check the engine runs whenever the event heap
// drains (simulation quiescence) and, if WithInvariantInterval enabled
// periodic checking, every interval of virtual time. A non-nil return fails
// the run, pinpointing the first virtual instant the model went wrong.
func (e *engine) Invariant(name string, fn func() error) {
	e.invariants = append(e.invariants, invariant{name: name, fn: fn})
}

// WithInvariantInterval enables periodic invariant checking: registered
// invariants run every d of virtual time while events are being processed
// (in addition to the always-on check at quiescence). d <= 0 disables the
// periodic checks.
func WithInvariantInterval(d time.Duration) Option {
	return func(e *engine) { e.invInterval = d }
}

// checkInvariants runs every registered invariant, recording the first
// failure into the engine. It sits on the dispatch loop's periodic sweep,
// but only the (terminal) failure path allocates.
func (e *engine) checkInvariants() {
	for _, inv := range e.invariants {
		if err := inv.fn(); err != nil {
			e.Fail(fmt.Errorf("sim: invariant %q violated at %v: %w", inv.name, e.now, err))
			return
		}
	}
}
