// Package repro is a from-scratch reproduction of "Thread Migration in a
// Replicated-Kernel OS" (Katz, Barbalace, Ansary, Ravichandran, Ravindran;
// IEEE ICDCS 2015) — the Popcorn Linux thread layer — as a deterministic
// simulation in pure Go.
//
// The system lives under internal/: a discrete-event simulator (sim), a
// hardware cost model (hw), the inter-kernel message fabric (msg), kernel
// subsystems (mem, vm, sched, futex, task, threadgroup, kernel), the
// replicated-kernel OS with its single-system image (core), the SMP-Linux
// and Barrelfish-like baselines (smp, multikernel), the benchmark workloads
// (workload) and the evaluation harness (bench).
//
// Start with examples/quickstart, then cmd/popcornsim for single runs and
// cmd/benchtable to regenerate every table and figure; benchmark/ times the
// same experiments on the host clock.
package repro
