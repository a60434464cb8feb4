// Package task defines the kernel's view of a thread: the task struct, its
// lifecycle states (among them the shadow the paper's migration protocol
// leaves on the source kernel), and the migratable user context.
package task

import "fmt"

// ID is a task (thread) identifier, unique across the whole machine. The
// replicated-kernel OS partitions the PID space so each kernel can allocate
// globally unique IDs without coordination.
type ID int64

// NoTask is the zero, invalid task ID.
const NoTask ID = 0

// State is a task's lifecycle state.
type State int

// Task states.
const (
	StateNew State = iota + 1
	// StateRunnable means queued on a run queue.
	StateRunnable
	// StateRunning means currently on a core.
	StateRunning
	// StateShadow means the task migrated away; this husk remains at its
	// former kernel holding kernel-side resources for back-migration.
	StateShadow
	// StateExited means the thread has terminated.
	StateExited
	// StateLost means the kernel hosting the live thread crashed before it
	// could exit: its execution is gone, but the group accounting completed
	// (join does not wedge on it). Only degradation paths set this.
	StateLost
	// StateRecovered marks a replacement task restarted on a surviving
	// kernel from a lost thread's last migration checkpoint. It stays in
	// this state while the re-execution runs (so the recovery is observable
	// at end of run) and transitions to StateExited through the normal exit
	// path.
	StateRecovered
)

// stateNames is populated once by this literal and only ever read.
var stateNames = map[State]string{
	StateNew:       "new",
	StateRunnable:  "runnable",
	StateRunning:   "running",
	StateShadow:    "shadow",
	StateExited:    "exited",
	StateLost:      "lost",
	StateRecovered: "recovered",
}

func (s State) String() string {
	if n, ok := stateNames[s]; ok {
		return n
	}
	return fmt.Sprintf("task.State(%d)", int(s))
}

// ContextBytes is the serialised size of the migratable user execution
// context, what the paper ships in a migration message; it costs the
// messages that carry one. Sizes follow x86-64: 16 GPRs, instruction and
// stack pointers and flags, the XSAVE-style FPU/SSE area, and the TLS base.
// No simulated thread has register state, so only the size is modelled.
const ContextBytes = 16*8 + 3*8 + 512 + 8

// Task is the kernel-side descriptor for one thread.
type Task struct {
	// ID is the machine-global thread ID.
	ID ID
	// TGID identifies the (distributed) thread group the task belongs to.
	TGID ID
	// Kernel is the kernel instance currently hosting the task.
	Kernel int
	// State is the lifecycle state.
	State State
	// MigratedTo records, for a shadow, which kernel the live thread went
	// to. Valid only when State == StateShadow.
	MigratedTo int
	// Migrations counts how many times this thread has moved.
	Migrations int
	// Hops lists the kernels this thread left shadows on, in migration
	// order; they are reaped when the thread exits. Each Task owns its
	// array: a migration ships the source's list by reference and the
	// destination rebuilds it into its own task's, so a shadow's list is
	// never written and a rollback revives it intact.
	Hops []int
	// PendingSignals holds delivered-but-unconsumed signal numbers, in
	// delivery order. Pending signals migrate with the thread.
	PendingSignals []int
	// Recoverable marks a thread whose origin retains its last migration
	// payload as a checkpoint: if the hosting kernel crashes, the origin may
	// restart the thread (StateRecovered) instead of reaping it as lost.
	// The flag travels with the task across migrations.
	Recoverable bool
}

// New returns a normal task in StateNew.
func New(id, tgid ID, kernel int) *Task {
	return &Task{
		ID:     id,
		TGID:   tgid,
		Kernel: kernel,
		State:  StateNew,
	}
}

func (t *Task) String() string {
	return fmt.Sprintf("task{id=%d tgid=%d kernel=%d %v}", t.ID, t.TGID, t.Kernel, t.State)
}
