// Package sim implements a deterministic discrete-event simulator with
// cooperative processes hosted on pooled runtime coroutines.
//
// The engine advances a virtual clock by draining a time-ordered event heap.
// Exactly one simulated process runs at any instant: a process executes real
// Go code until it performs a blocking simulator operation (Sleep, channel
// send/receive, mutex lock, ...), at which point control returns to the
// engine, which dispatches the next event. Same-instant events fire in
// insertion order unless WithTieShuffle's seeded chooser picks, so a given
// seed and program order always produce an identical schedule.
//
// A process body runs on a carrier: an iter.Pull coroutine the engine
// switches into and the body switches out of directly, with no channel and
// no trip through the Go scheduler's run queue. A finished body's carrier
// waits on an engine-owned idle list for the next Spawn, so a short-lived
// process costs a Proc record, not a goroutine (on Start storage its caller
// reuses, not even that), and a wait links Procs, no record; Close stops all.
//
// The package is the hardware/time substrate for the replicated-kernel OS
// reproduction: kernels, message rings, schedulers, and workloads are all
// simulated processes whose costs are expressed as virtual-time delays.
package sim
