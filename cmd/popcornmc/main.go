// Command popcornmc model-checks the replicated kernel's distributed
// protocols. It is one harness driving a table of rows (rows.go). A row is
// a machine shape, a fault plan, a workload, the counters it reports and a
// check over them; the harness boots the row under a seed with tie-shuffled
// scheduling, attaches the coherence sanitizer and happens-before race
// detector (internal/sanitize) and the causal span collector, attaches the
// row's planes, runs the workload to quiescence and judges the run.
//
// Three rows are sweeps — contention, migration, futex — short protocol-
// heavy workloads whose planes come from the command line: -planes takes
// any subset of flow, failover and faults (default configurations; the
// fault plane brings the row's seed-derived plan: drop, duplication and
// delay on every link, and for migration a kernel crash just after it
// accepts a migrated thread). Three are soaks — chaos, overload, failover —
// endurance runs that fix their own planes and plan and assert an end
// state (soakrows.go says what each asserts).
//
// The verdict is the same for every row, in this order. Safety: the
// sanitizer saw two kernels hold a page writable, a reader observe a stale
// value after an invalidation acked, layout versions go backwards, or a
// data race the protocol's happens-before edges do not order; or the run
// ended in an error (a panic, a deadlock, a leaked RPC wait-table entry)
// that is not a dead-peer or backpressure degradation a sweep row's
// attached planes explain. End state, judged only on runs that reached
// quiescence: the cluster settled inside the event backstop, no thread is
// still live, and the row's own check over its counters holds.
//
// A seed that fails a safety verdict is shrunk to the shortest event
// prefix that still fails (binary search over the engine's event limit —
// the schedule is a pure function of the seed, so any prefix replays
// exactly); every failing seed prints the sanitizer's reports, the tail of
// the operation timeline and the command that reproduces it.
//
// Usage:
//
//	popcornmc -workload all -seeds 32                        (the three sweeps, bare)
//	popcornmc -workload all -seeds 16 -planes faults         (fault sweep)
//	popcornmc -workload futex -planes flow,failover          (any of the 2^3 plane sets)
//	popcornmc -workload chaos -seeds 16 -v                   (a soak, with per-seed counters)
//	popcornmc -workload contention -seed 17 -events 4213     (replay a repro)
//	popcornmc -workload migration -inject skip-revoke=1      (plant a protocol bug)
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/adversity"
	"repro/internal/core"
	"repro/internal/msg"
	"repro/internal/sanitize"
	"repro/internal/sim"
	"repro/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "popcornmc:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("popcornmc", flag.ContinueOnError)
	wlFlag := fs.String("workload", "all", "row to run: "+rowNames()+", or all (the three sweeps)")
	seeds := fs.Int64("seeds", 32, "sweep seeds 1..N")
	seed := fs.Int64("seed", 0, "run this single seed instead of sweeping")
	events := fs.Uint64("events", 0, "stop after N events (replays a shrunk prefix)")
	inject := fs.String("inject", "", "sweep rows: plant a protocol bug; skip-revoke=K drops invalidations to kernel K")
	planesFlag := fs.String("planes", "", "sweep rows: comma-separated planes to attach, of flow, failover, faults")
	verbose := fs.Bool("v", false, "print a line per seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	picked, err := pickRows(*wlFlag)
	if err != nil {
		return err
	}
	pl, err := parsePlanes(*planesFlag)
	if err != nil {
		return err
	}
	injectNode, err := parseInject(*inject)
	if err != nil {
		return err
	}
	var sweep []int64
	switch {
	case *seed != 0:
		sweep = []int64{*seed}
	case *seeds < 1:
		return fmt.Errorf("-seeds %d: nothing to run", *seeds)
	default:
		for s := int64(1); s <= *seeds; s++ {
			sweep = append(sweep, s)
		}
	}
	for _, r := range picked {
		if r.soak && (*planesFlag != "" || *inject != "") {
			return fmt.Errorf("%s is a soak: it fixes its own planes and plan; -planes and -inject apply to the sweeps", r.Name)
		}
		cfg := runCfg{row: r, limit: *events, inject: injectNode, planes: pl}
		if err := sweepRow(w, cfg, sweep, *verbose); err != nil {
			return err
		}
	}
	return nil
}

// sweepRow runs one row over the seeds, stops at the first seed that fails
// and prints what is needed to see why and to run it again.
func sweepRow(w io.Writer, cfg runCfg, seeds []int64, verbose bool) error {
	r := cfg.row
	var events uint64
	totals := make(map[string]uint64)
	for _, s := range seeds {
		cfg.seed = s
		out := runOne(cfg)
		events += out.events
		for _, st := range r.report {
			totals[st.key] = st.total(totals[st.key], out.vals[st.key])
		}
		if verbose {
			fmt.Fprintf(w, "%-11s seed=%-4d events=%-8d violations=%d races=%d degraded=%v%s ties=%d/%d\n",
				r.Name, s, out.events, len(out.violations), len(out.races), out.degraded, statLine(r.report, out.vals),
				out.ties[0], out.ties[1])
		}
		if out.err == nil {
			continue
		}
		fmt.Fprintf(w, "%s: seed %d FAILED after %d events: %v\n\n", r.Name, s, out.events, out.err)
		out.explain(w)
		// Only a safety verdict has a shorter prefix that still shows it; an
		// end-state verdict is about the complete run, which replays whole.
		limit := cfg.limit
		if out.safety && limit == 0 {
			limit = shrinkLimit(cfg, out.events)
			fmt.Fprintf(w, "shrunk to a %d-event prefix (from %d)\n\n", limit, out.events)
		}
		fmt.Fprintf(w, "replay deterministically with:\n\n  go run ./cmd/popcornmc %s\n", replayArgs(cfg, limit))
		return fmt.Errorf("%s: seed %d: %w", r.Name, s, out.err)
	}
	if r.sweepCheck != nil && cfg.limit == 0 {
		if err := r.sweepCheck(totals, len(seeds)); err != nil {
			return fmt.Errorf("%s: %w", r.Name, err)
		}
	}
	fmt.Fprintf(w, "%s: %d seeds clean (events=%d%s)\n", r.Name, len(seeds), events, statLine(r.report, totals))
	return nil
}

// runCfg is everything a single seeded run needs, so shrinking and replay
// reuse the exact configuration.
type runCfg struct {
	row    *row
	seed   int64
	limit  uint64 // -events: judge only this prefix of the schedule
	inject int    // kernel whose invalidations are dropped, -1 for none
	planes planes // -planes; a soak row attaches its own instead
}

// attached is the set of planes the run attaches.
func (c runCfg) attached() planes {
	if c.row.soak {
		return c.row.planes
	}
	return c.planes
}

// planes is the set of fabric planes a run attaches.
type planes struct{ flow, failover, faults bool }

func (pl planes) String() string {
	var on []string
	if pl.flow {
		on = append(on, "flow")
	}
	if pl.failover {
		on = append(on, "failover")
	}
	if pl.faults {
		on = append(on, "faults")
	}
	return strings.Join(on, ",")
}

// outcome is one seeded run's verdict.
type outcome struct {
	events     uint64
	violations []*sanitize.Violation
	races      []*sanitize.Violation
	// degraded notes that a sweep workload surfaced a dead-peer or
	// backpressure error its attached planes explain — the tolerated
	// outcome, not a failure.
	degraded bool
	// vals are the row's reported counters, by stat key; ties are the
	// engine's Ties, the shuffled schedule's choices and their widest k.
	vals map[string]uint64
	ties [2]uint64
	// err is the verdict (nil: clean); safety says it is one a prefix of the
	// schedule can show, so the seed can be shrunk.
	err    error
	safety bool
	// spans is the run's causal span collector, kept so a failing seed can
	// print the tail of its operation timeline next to the verdict.
	spans *trace.Collector
}

// explain prints what a failing run leaves behind besides its verdict: the
// sanitizer's rendered reports, and the failure timeline — the last
// operations the cluster ran, straight from the causal tracer.
func (out outcome) explain(w io.Writer) {
	for _, v := range append(out.violations, out.races...) {
		fmt.Fprintf(w, "%s\n\n", v.String())
	}
	var tl strings.Builder
	if err := out.spans.WriteTimeline(&tl, trace.TailSpans); err == nil && tl.Len() > 0 {
		fmt.Fprintf(w, "last operations before failure:\n%s\n", tl.String())
	}
}

// eventBackstop bounds every run that -events does not: a healthy seed of
// the longest row quiesces in well under a million events, so reaching it
// means something retried forever.
const eventBackstop = 5_000_000

// runOne boots a fresh OS for the row, attaches the checkers and the run's
// planes — flow, failover, faults, the order every row relies on — runs the
// workload under the seed, optionally bounded to a prefix, and judges it.
// The sanitizer and the collector only record what the simulation already
// produced; neither moves an event.
func runOne(cfg runCfg) outcome {
	r := cfg.row
	bc, err := r.Config(cfg.seed)
	if err != nil {
		return outcome{err: err}
	}
	o, err := core.Boot(bc)
	if err != nil {
		return outcome{err: err}
	}
	defer o.Close()
	ck := o.AttachSanitizer(sanitize.Config{FailFast: true})
	out := outcome{spans: o.AttachTracer(), vals: make(map[string]uint64)}
	limit := cfg.limit
	if limit == 0 {
		limit = eventBackstop
	}
	o.Engine().SetEventLimit(limit)
	pl := cfg.attached()
	if pl.flow {
		o.EnableFlow(r.flow)
	}
	if pl.failover {
		o.EnableFailover()
	}
	if pl.faults {
		// The schedule seed seeds the plan too, so every sweep seed explores
		// a different fault pattern.
		o.EnableFaults(r.Plan(cfg.seed), msg.FaultConfig{})
	}
	if cfg.inject >= 0 {
		for k := 0; k < o.Kernels(); k++ {
			o.Kernel(k).VM.InjectSkipRevoke(msg.NodeID(cfg.inject))
		}
	}
	err = r.Run(o, cfg.seed)

	out.events = o.Engine().EventsProcessed()
	out.ties[0], out.ties[1] = o.Engine().Ties()
	out.violations, out.races = ck.Violations(), ck.Races()
	m := o.Metrics()
	for _, st := range r.report {
		out.vals[st.key] = st.read(m)
	}
	limited := errors.Is(err, sim.ErrEventLimit)
	switch {
	case len(out.violations)+len(out.races) > 0:
		// A fail-fast violation explains its own panic; err adds nothing.
		out.err, out.safety = fmt.Errorf("%d sanitizer violations, %d races", len(out.violations), len(out.races)), true
	case limited && cfg.limit == 0:
		out.err = fmt.Errorf("event backstop hit: the cluster never settled: %w", err)
	case limited:
		// The prefix -events asked for ran clean; there is no end state.
	case err != nil && !r.soak && pl != (planes{}) && adversity.IsDegradation(err):
		// Soak workers absorb degradation in their bodies, so an error that
		// escapes one is real; a sweep workload just stops, with the safety
		// verdicts above already passed.
		out.degraded = true
	case err != nil:
		out.err, out.safety = err, true
	case o.LiveThreads() != 0:
		out.err = fmt.Errorf("%d threads still live after quiescence", o.LiveThreads())
	default:
		out.err = r.check(m)
	}
	return out
}

// shrinkLimit binary-searches the smallest event limit under which the
// seed still fails a safety verdict. Event limits do not perturb the
// schedule, so failure is monotone in the limit and the search is exact.
func shrinkLimit(cfg runCfg, failEvents uint64) uint64 {
	lo, hi := uint64(1), failEvents
	for lo < hi {
		cfg.limit = lo + (hi-lo)/2
		if runOne(cfg).safety {
			hi = cfg.limit
		} else {
			lo = cfg.limit + 1
		}
	}
	return lo
}

// replayArgs spells the command line that reruns cfg; limit 0 replays the
// complete run.
func replayArgs(cfg runCfg, limit uint64) string {
	args := fmt.Sprintf("-workload %s -seed %d -v", cfg.row.Name, cfg.seed)
	if limit > 0 {
		args += fmt.Sprintf(" -events %d", limit)
	}
	if cfg.row.soak {
		return args
	}
	if cfg.planes != (planes{}) {
		args += " -planes " + cfg.planes.String()
	}
	if cfg.inject >= 0 {
		args += fmt.Sprintf(" -inject skip-revoke=%d", cfg.inject)
	}
	return args
}

func parsePlanes(s string) (planes, error) {
	var pl planes
	if s == "" {
		return pl, nil
	}
	for _, name := range strings.Split(s, ",") {
		switch name {
		case "flow":
			pl.flow = true
		case "failover":
			pl.failover = true
		case "faults":
			pl.faults = true
		default:
			return pl, fmt.Errorf("unknown plane %q (want flow, failover, faults)", name)
		}
	}
	return pl, nil
}

func parseInject(s string) (int, error) {
	if s == "" {
		return -1, nil
	}
	val, ok := strings.CutPrefix(s, "skip-revoke=")
	if !ok {
		return -1, fmt.Errorf("unknown injection %q (want skip-revoke=K)", s)
	}
	k, err := strconv.Atoi(val)
	if err != nil || k < 0 {
		return -1, fmt.Errorf("bad injection target %q", val)
	}
	return k, nil
}
