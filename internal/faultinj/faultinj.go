// Package faultinj describes deterministic fault-injection plans for the
// inter-kernel message fabric. A Plan is a pure description — which links
// misbehave, with what probability, and which kernels die when — plus a
// seeded RNG that makes every decision replayable: the same Plan driven by
// the same schedule produces byte-identical faults, so a failing fault
// sweep replays exactly from its seed pair.
//
// The package deliberately knows nothing about the msg package: links and
// message types are plain ints (msg.NodeID / msg.Type values), so the
// fabric can depend on faultinj without a cycle.
package faultinj

import (
	"time"

	"repro/internal/sim"
)

// Wildcard matches any node or message type in a Rule.
const Wildcard = -1

// Rule applies probabilistic faults to messages matching (From, To, Type);
// Wildcard (-1) fields match anything. The first matching rule in a Plan
// wins, so a leading all-zero rule exempts a type or link from later
// wildcard rules.
type Rule struct {
	From, To int // sending/receiving kernel, or Wildcard
	Type     int // message type (int(msg.Type)), or Wildcard

	DropP  float64 // probability the message is dropped at commit
	DupP   float64 // probability a duplicate delivery is also scheduled
	DelayP float64 // probability delivery is deferred out of FIFO order

	// DelayMax bounds the extra latency for delayed primaries and for
	// duplicate deliveries. Delayed messages bypass the per-pair FIFO wire,
	// so DelayMax is also the plan's reorder window.
	DelayMax time.Duration
}

func (r Rule) matches(from, to, typ int) bool {
	return (r.From == Wildcard || r.From == from) &&
		(r.To == Wildcard || r.To == to) &&
		(r.Type == Wildcard || r.Type == typ)
}

// NodeCrash kills a kernel at an absolute simulation time: its endpoint
// goes dark and every process it hosts halts.
type NodeCrash struct {
	Node int
	At   time.Duration
}

// TypeCrash kills a kernel relative to protocol progress: After elapses
// from the moment the Nth message of the given type (requests and replies
// both count) commits to a wire. This is how a sweep lands a crash
// mid-migration without knowing the schedule's absolute timings.
type TypeCrash struct {
	Node  int
	Type  int
	Nth   int // 1-based commit count that arms the crash
	After time.Duration
}

// CrashOrigin kills a kernel relative to the directory protocol's own
// progress: After elapses from the moment the kernel hosting the origin
// commits its Nth directory transaction. Node names the origin kernel to
// kill (the one whose page-directory/group state the crash orphans), so a
// failover sweep can land the crash mid-replication-stream without knowing
// the schedule's absolute timings.
type CrashOrigin struct {
	Node  int
	Nth   int // 1-based directory-commit count at Node that arms the crash
	After time.Duration
}

// NodeHeal reboots a crashed kernel at an absolute simulation time: the
// kernel comes back empty (all pre-crash state is gone), bumps its
// incarnation number, and runs the rejoin handshake with the survivors.
// Healing a kernel that is not crashed is a no-op, so crash/heal pairs can
// be scheduled independently.
type NodeHeal struct {
	Node int
	At   time.Duration
}

// Partition makes the link between kernels A and B (both directions) drop
// everything during [From, Until), then heal.
type Partition struct {
	A, B        int
	From, Until time.Duration
}

// SlowLink is the gray-failure injection: during [From, Until) every
// delivery between kernels A and B (both directions; Wildcard matches any
// kernel) is inflated by Extra plus a seed-driven draw in (0, Jitter] —
// sustained latency without any loss, the signature a binary dead-vs-alive
// detector cannot classify. Unlike probabilistic rules it applies to
// heartbeats too: a sick link slows everything it carries.
type SlowLink struct {
	A, B        int
	From, Until time.Duration
	// Extra is the deterministic latency floor added to each delivery.
	Extra time.Duration
	// Jitter bounds the additional per-delivery random stutter (0 = none).
	Jitter time.Duration
}

// covers reports whether the window applies to the directed (from, to)
// delivery; windows are symmetric like Partitions.
func (s SlowLink) covers(from, to int) bool {
	match := func(a, b int) bool {
		return (s.A == Wildcard || s.A == a) && (s.B == Wildcard || s.B == b)
	}
	return match(from, to) || match(to, from)
}

// Decision is the fault plane's verdict for one committed message.
type Decision struct {
	Drop     bool
	Dup      bool
	Delay    time.Duration // >0 defers the primary delivery (reorder)
	DupDelay time.Duration // extra latency of the duplicate copy
}

// Plan is one run's complete fault schedule. The zero value (or nil) is a
// fully reliable fabric. Plans are single-use: Decide and RecordCommit
// mutate internal counters and the RNG stream.
type Plan struct {
	// Seed drives every probabilistic decision through a dedicated
	// splitmix64 stream, not the engine RNG the tie chooser draws from, so
	// fault plans compose with tie-shuffled schedules without perturbing them.
	Seed int64

	Rules         []Rule
	Crashes       []NodeCrash
	TypeCrashes   []TypeCrash
	OriginCrashes []CrashOrigin
	Heals         []NodeHeal
	Partitions    []Partition
	SlowLinks     []SlowLink

	rng         *sim.RNG
	commits     map[int]int
	fired       []bool
	dirCommits  map[int]int
	firedOrigin []bool
}

func (pl *Plan) ensure() {
	if pl.rng == nil {
		pl.rng = sim.NewRNG(pl.Seed)
	}
	if pl.commits == nil {
		pl.commits = make(map[int]int)
	}
	if pl.fired == nil {
		pl.fired = make([]bool, len(pl.TypeCrashes))
	}
	if pl.dirCommits == nil {
		pl.dirCommits = make(map[int]int)
	}
	if pl.firedOrigin == nil {
		pl.firedOrigin = make([]bool, len(pl.OriginCrashes))
	}
}

// Decide rolls the plan's RNG for one committed message. The draw sequence
// is a pure function of the commit order, which the deterministic engine
// fixes, so a replay makes identical decisions.
func (pl *Plan) Decide(from, to, typ int) Decision {
	pl.ensure()
	for _, r := range pl.Rules {
		if !r.matches(from, to, typ) {
			continue
		}
		var d Decision
		if r.DropP > 0 && pl.rng.Float64() < r.DropP {
			d.Drop = true
		}
		if r.DupP > 0 && pl.rng.Float64() < r.DupP {
			d.Dup = true
			d.DupDelay = pl.delay(r)
		}
		if !d.Drop && r.DelayP > 0 && pl.rng.Float64() < r.DelayP {
			d.Delay = pl.delay(r)
		}
		return d
	}
	return Decision{}
}

func (pl *Plan) delay(r Rule) time.Duration {
	if r.DelayMax <= 0 {
		return 0
	}
	return time.Duration(pl.rng.Int63n(int64(r.DelayMax)) + 1)
}

// RecordCommit counts one wire commit of typ and returns the TypeCrashes it
// arms (each fires at most once).
func (pl *Plan) RecordCommit(typ int) []TypeCrash {
	pl.ensure()
	pl.commits[typ]++
	var armed []TypeCrash
	for i, tc := range pl.TypeCrashes {
		if !pl.fired[i] && tc.Type == typ && pl.commits[typ] == tc.Nth {
			pl.fired[i] = true
			armed = append(armed, tc)
		}
	}
	return armed
}

// RecordDirCommit counts one directory-transaction commit at origin kernel
// `node` and returns the OriginCrashes it arms (each fires at most once).
// The count is per-kernel, a pure function of that kernel's own commit
// order, which the deterministic engine fixes — so an origin-crash sweep
// replays identically from its seed.
func (pl *Plan) RecordDirCommit(node int) []CrashOrigin {
	pl.ensure()
	pl.dirCommits[node]++
	var armed []CrashOrigin
	for i, oc := range pl.OriginCrashes {
		if !pl.firedOrigin[i] && oc.Node == node && pl.dirCommits[node] == oc.Nth {
			pl.firedOrigin[i] = true
			armed = append(armed, oc)
		}
	}
	return armed
}

// SlowExtra returns the latency inflation for one delivery on the (from,
// to) link at the given simulation time: the sum of every active window's
// Extra plus its jitter draw. Jitter draws come from the plan's RNG in
// commit order — the same discipline as Decide — so a replay stutters
// identically. Windows with no Jitter draw nothing, keeping them invisible
// to the decision stream of plans that combine both.
func (pl *Plan) SlowExtra(now time.Duration, from, to int) time.Duration {
	var total time.Duration
	for _, s := range pl.SlowLinks {
		if now < s.From || now >= s.Until || !s.covers(from, to) {
			continue
		}
		total += s.Extra
		if s.Jitter > 0 {
			pl.ensure()
			total += time.Duration(pl.rng.Int63n(int64(s.Jitter)) + 1)
		}
	}
	return total
}

// Straggle bounds how long after a message leaves its wire any copy of it can
// still be delivered under this plan: the largest DelayMax of a duplicating or
// delaying rule plus every slow-link window's Extra+Jitter (windows on one
// link add up) — the latency one delivering roll can add — and, when the plan
// can drop (a DropP rule or a partition), the link-layer redelivery chain
// before that roll: retries attempts, attempt n after n*every, each dropped
// copy re-rolled undelayed. Zero for a plan that injects nothing.
func (pl *Plan) Straggle(retries int, every time.Duration) time.Duration {
	var bound time.Duration
	drops := len(pl.Partitions) > 0
	for _, r := range pl.Rules {
		if r.DupP > 0 || r.DelayP > 0 {
			bound = max(bound, r.DelayMax)
		}
		drops = drops || r.DropP > 0
	}
	for _, s := range pl.SlowLinks {
		bound += s.Extra + s.Jitter
	}
	if drops {
		bound += every * time.Duration(retries*(retries+1)/2)
	}
	return bound
}

// Partitioned reports whether the a<->b link is inside a partition window
// at the given simulation time.
func (pl *Plan) Partitioned(now time.Duration, a, b int) bool {
	for _, part := range pl.Partitions {
		if now < part.From || now >= part.Until {
			continue
		}
		if (part.A == a && part.B == b) || (part.A == b && part.B == a) {
			return true
		}
	}
	return false
}
