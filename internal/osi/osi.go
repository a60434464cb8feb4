// Package osi defines the operating-system interface benchmark workloads
// program against. The replicated-kernel OS (internal/core) and the
// SMP-Linux-like baseline (internal/smp) both implement it, so the same
// workload binary runs unmodified on either — mirroring how the paper runs
// identical Linux applications on Popcorn and on SMP Linux. The
// Barrelfish-like multikernel baseline deliberately does not implement this
// interface: applications must be ported to its explicit-messaging API, as
// they had to be for Barrelfish.
package osi

import (
	"errors"
	"time"

	"repro/internal/hw"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/stats"
)

// ErrUnsupported marks operations an OS flavour does not provide (e.g.
// kernel-directed migration on SMP, which has a single kernel).
var ErrUnsupported = errors.New("osi: operation not supported by this OS")

// AnyKernel requests automatic placement in Spawn.
const AnyKernel = -1

// OS is a booted operating system on the simulated machine.
type OS interface {
	// Name identifies the flavour ("popcorn", "smp", ...).
	Name() string
	// Engine returns the simulation engine the OS runs on.
	Engine() sim.Engine
	// Machine returns the simulated hardware.
	Machine() *hw.Machine
	// Kernels returns the number of kernel instances (1 for SMP).
	Kernels() int
	// Metrics returns the OS-wide metrics registry.
	Metrics() *stats.Registry
	// Conserved reports what a finished run failed to give back: frames in
	// use on a live kernel, and on popcorn threads still live.
	Conserved() error
	// Digest returns the wrapping sum of the semantic digests (vm.Digest)
	// of every process closed so far, each folded at its Close: its layout
	// and its non-zero words. The sum depends on neither close order nor
	// process IDs, so a program gives the same digest on either OS.
	Digest() uint64
	// StartProcess creates a new process (thread group) with an empty
	// address space. The calling simulation process is charged the
	// creation cost.
	StartProcess(p *sim.Proc) (Process, error)
}

// ThreadFunc is a thread body. The thread exits when it returns.
type ThreadFunc func(t Thread)

// Process is a running process: one distributed thread group on the
// replicated kernel, one ordinary process on SMP.
type Process interface {
	// Spawn clones a new thread onto the given kernel (AnyKernel lets the
	// OS place it round-robin) and starts fn on it.
	Spawn(p *sim.Proc, kernel int, fn ThreadFunc) error
	// Wait blocks until every spawned thread has exited.
	Wait(p *sim.Proc)
	// Close tears the process down (the main thread's exit). Call after
	// Wait.
	Close(p *sim.Proc) error
}

// Thread is the syscall surface a running thread sees. All operations
// charge their virtual-time costs on the thread's simulation process and
// execute against the kernel currently hosting the thread.
type Thread interface {
	// Proc returns the simulation process executing this thread.
	Proc() *sim.Proc
	// ID returns the thread's machine-global ID.
	ID() int64
	// KernelID returns the kernel instance currently hosting the thread
	// (always 0 on SMP).
	KernelID() int
	// Core returns the global core the thread currently occupies.
	Core() int
	// Compute burns d of CPU time on the thread's core, subject to
	// preemption when the kernel's run queue is non-empty.
	Compute(d time.Duration)
	// Mmap creates an anonymous mapping.
	Mmap(length uint64, prot mem.Prot) (mem.Addr, error)
	// Sbrk grows or shrinks the process heap by delta bytes (page
	// rounded), returning the previous program break.
	Sbrk(delta int64) (mem.Addr, error)
	// Munmap removes mappings in the range.
	Munmap(addr mem.Addr, length uint64) error
	// Mprotect changes protection on the (fully mapped) range.
	Mprotect(addr mem.Addr, length uint64, prot mem.Prot) error
	// Load reads the word at addr.
	Load(addr mem.Addr) (int64, error)
	// Store writes the word at addr.
	Store(addr mem.Addr, val int64) error
	// CompareAndSwap atomically swaps addr from old to new.
	CompareAndSwap(addr mem.Addr, old, new int64) (bool, error)
	// FetchAdd atomically adds delta to addr, returning the old value.
	FetchAdd(addr mem.Addr, delta int64) (int64, error)
	// FutexWait sleeps until a FutexWake on addr, if addr still holds
	// expect (ErrWouldBlock-style errors follow the futex package).
	FutexWait(addr mem.Addr, expect int64) error
	// FutexWake wakes up to count waiters on addr.
	FutexWake(addr mem.Addr, count int) (int, error)
	// FutexRequeue wakes up to wake waiters of from and moves up to
	// requeue of the remainder onto to, if from still holds expect
	// (FUTEX_CMP_REQUEUE). Returns (woken, requeued).
	FutexRequeue(from, to mem.Addr, expect int64, wake, requeue int) (int, int, error)
	// Spawn clones a sibling thread in the same process.
	Spawn(kernel int, fn ThreadFunc) error
	// Migrate moves this thread to another kernel instance. SMP returns
	// ErrUnsupported.
	Migrate(kernel int) error
	// Kill delivers a signal to a sibling thread, wherever it runs.
	Kill(tid int64, sig int) error
	// SigWait blocks until this thread has pending signals, then consumes
	// and returns them.
	SigWait() ([]int, error)
}
