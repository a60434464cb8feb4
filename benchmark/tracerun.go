package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/osi"
	"repro/internal/sim"
	"repro/internal/trace"
)

// The traced run wraps the osi surface from the outside: every syscall a
// workload thread makes becomes a span under the op that encloses it. The
// program under test is untouched; spans inside it are ROADMAP item 5.

// outDir is where the traced run writes, relative to the repo root.
const outDir = "benchmark/out"

// maxSpansWritten caps a trace file: past it, whole ops are sampled at a
// fixed stride (the file says so). Every span stays in memory regardless,
// and every aggregate is computed over all of them.
const maxSpansWritten = 60000

// sysSpan is one recorded span: an op (Parent 0) or a syscall under it.
// Times are nanoseconds; the host clock counts from the recorder's start.
type sysSpan struct {
	ID        int32  `json:"id"`
	Parent    int32  `json:"parent"`
	Name      string `json:"name"`
	Thread    int64  `json:"thread"`
	VirtStart int64  `json:"virt_start_ns"`
	VirtEnd   int64  `json:"virt_end_ns"`
	HostStart int64  `json:"host_start_ns"`
	HostEnd   int64  `json:"host_end_ns"`
	// whole marks an op closed by the workload's boundary rule rather than
	// by thread exit; only whole ops feed the latency percentiles.
	whole bool
}

// recorder holds the spans of one traced rep. The serial engine runs one
// simulated thread at a time, so appends need no lock.
type recorder struct {
	opStart, opEnd string
	t0             time.Time
	spans          []sysSpan
}

func (rc *recorder) host() int64 { return time.Since(rc.t0).Nanoseconds() }

func (rc *recorder) open(name string, parent int32, th osi.Thread) int32 {
	id := int32(len(rc.spans) + 1)
	rc.spans = append(rc.spans, sysSpan{ID: id, Parent: parent, Name: name, Thread: th.ID(),
		VirtStart: int64(th.Proc().Now()), HostStart: rc.host()})
	return id
}

func (rc *recorder) close(id int32, th osi.Thread) {
	sp := &rc.spans[id-1]
	sp.VirtEnd, sp.HostEnd = int64(th.Proc().Now()), rc.host()
}

type tracedOS struct {
	osi.OS
	rc *recorder
}

func (o tracedOS) StartProcess(p *sim.Proc) (osi.Process, error) {
	pr, err := o.OS.StartProcess(p)
	if err != nil {
		return nil, err
	}
	return tracedProcess{pr, o.rc}, nil
}

type tracedProcess struct {
	osi.Process
	rc *recorder
}

func (pr tracedProcess) Spawn(p *sim.Proc, kernel int, fn osi.ThreadFunc) error {
	return pr.Process.Spawn(p, kernel, pr.rc.wrap(fn))
}

// wrap runs fn on a recording thread and closes the op it leaves open.
func (rc *recorder) wrap(fn osi.ThreadFunc) osi.ThreadFunc {
	return func(th osi.Thread) {
		t := &tracedThread{Thread: th, rc: rc}
		fn(t)
		t.endOp(rc.opStart != "")
	}
}

// tracedThread records a span per syscall. Ops are delimited by the
// workload's rule: a call named opStart opens a new op (closing the one
// before), a call named opEnd closes the current one, and with no opStart
// the first call after a close opens the next.
type tracedThread struct {
	osi.Thread
	rc *recorder
	op int32
}

func (t *tracedThread) endOp(whole bool) {
	if t.op != 0 {
		t.rc.close(t.op, t.Thread)
		t.rc.spans[t.op-1].whole = whole
		t.op = 0
	}
}

func (t *tracedThread) call(name string) int32 {
	if name == t.rc.opStart {
		t.endOp(true)
	}
	if t.op == 0 && (t.rc.opStart == "" || name == t.rc.opStart) {
		t.op = t.rc.open("op", 0, t.Thread)
	}
	return t.rc.open(name, t.op, t.Thread)
}

func (t *tracedThread) ret(id int32, name string) {
	t.rc.close(id, t.Thread)
	if name == t.rc.opEnd {
		t.endOp(true)
	}
}

func (t *tracedThread) Compute(d time.Duration) {
	id := t.call("Compute")
	t.Thread.Compute(d)
	t.ret(id, "Compute")
}

func (t *tracedThread) Mmap(length uint64, prot mem.Prot) (mem.Addr, error) {
	id := t.call("Mmap")
	a, err := t.Thread.Mmap(length, prot)
	t.ret(id, "Mmap")
	return a, err
}

func (t *tracedThread) Munmap(addr mem.Addr, length uint64) error {
	id := t.call("Munmap")
	err := t.Thread.Munmap(addr, length)
	t.ret(id, "Munmap")
	return err
}

func (t *tracedThread) Load(addr mem.Addr) (int64, error) {
	id := t.call("Load")
	v, err := t.Thread.Load(addr)
	t.ret(id, "Load")
	return v, err
}

func (t *tracedThread) Store(addr mem.Addr, val int64) error {
	id := t.call("Store")
	err := t.Thread.Store(addr, val)
	t.ret(id, "Store")
	return err
}

func (t *tracedThread) CompareAndSwap(addr mem.Addr, old, new int64) (bool, error) {
	id := t.call("CompareAndSwap")
	ok, err := t.Thread.CompareAndSwap(addr, old, new)
	t.ret(id, "CompareAndSwap")
	return ok, err
}

func (t *tracedThread) FetchAdd(addr mem.Addr, delta int64) (int64, error) {
	id := t.call("FetchAdd")
	v, err := t.Thread.FetchAdd(addr, delta)
	t.ret(id, "FetchAdd")
	return v, err
}

func (t *tracedThread) FutexWait(addr mem.Addr, expect int64) error {
	id := t.call("FutexWait")
	err := t.Thread.FutexWait(addr, expect)
	t.ret(id, "FutexWait")
	return err
}

func (t *tracedThread) FutexWake(addr mem.Addr, count int) (int, error) {
	id := t.call("FutexWake")
	n, err := t.Thread.FutexWake(addr, count)
	t.ret(id, "FutexWake")
	return n, err
}

func (t *tracedThread) Migrate(kernel int) error {
	id := t.call("Migrate")
	err := t.Thread.Migrate(kernel)
	t.ret(id, "Migrate")
	return err
}

func (t *tracedThread) Spawn(kernel int, fn osi.ThreadFunc) error {
	id := t.call("Spawn")
	err := t.Thread.Spawn(kernel, t.rc.wrap(fn))
	t.ret(id, "Spawn")
	return err
}

// tracedRep is one traced rep's result: the rep itself, its wall clock, the
// recorder and the protocol tracer's collector.
type tracedRep struct {
	rep
	wallS float64
	rc    *recorder
	col   *trace.Collector
}

// runTraced runs w once with the span recorder wrapped around the osi
// surface and the causal tracer attached to the replicated kernel.
func runTraced(w workloadDef, seed int64, s size) (tracedRep, error) {
	tr := tracedRep{rc: &recorder{opStart: w.opStart, opEnd: w.opEnd}}
	h := hooks{booted: func(o osi.OS) osi.OS {
		if co, ok := o.(*core.OS); ok {
			tr.col = co.AttachTracer()
		}
		return tracedOS{o, tr.rc}
	}}
	tr.rc.t0 = time.Now()
	var err error
	tr.rep, err = w.run(seed, s, h)
	tr.wallS = time.Since(tr.rc.t0).Seconds()
	return tr, err
}

// opVirtUS returns the p50 and p99 virtual latency of whole ops in
// microseconds (nearest rank) and how many there were.
func (rc *recorder) opVirtUS() (p50, p99 float64, n int) {
	var d []int64
	for _, sp := range rc.spans {
		if sp.Parent == 0 && sp.whole {
			d = append(d, sp.VirtEnd-sp.VirtStart)
		}
	}
	if len(d) == 0 {
		return 0, 0, 0
	}
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	rank := func(q float64) float64 { return float64(d[int(q*float64(len(d)-1)+0.5)]) / 1e3 }
	return rank(0.50), rank(0.99), len(d)
}

// wireShare sums, over every root operation the tracer saw, its critical
// path and the part of it spent on wire legs.
func wireShare(col *trace.Collector) (wire, total time.Duration) {
	for _, root := range col.RootNames() {
		att := col.CriticalPath(root)
		total += att.Total
		for _, leg := range att.Legs {
			if strings.HasPrefix(leg.Name, "wire.") {
				wire += leg.Total
			}
		}
	}
	return wire, total
}

func pctOf(part, whole time.Duration) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * float64(part) / float64(whole)
}

// callTotal aggregates every span of one name.
type callTotal struct {
	Name   string `json:"name"`
	Count  int    `json:"count"`
	VirtNS int64  `json:"virt_ns"`
	HostNS int64  `json:"host_ns"`
}

// traceFile is the document written to out/<workload>.trace.json.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	// SpansTotal were recorded; Spans holds those of every Stride-th op.
	SpansTotal int         `json:"spans_total"`
	Stride     int         `json:"op_stride"`
	Calls      []callTotal `json:"calls"`
	Spans      []sysSpan   `json:"spans"`
}

func (rc *recorder) file(workload string, seed int64) traceFile {
	tf := traceFile{Workload: workload, Seed: seed, SpansTotal: len(rc.spans), Stride: 1 + len(rc.spans)/maxSpansWritten}
	byName := make(map[string]*callTotal)
	keep := make([]bool, len(rc.spans)+1) // by span ID; 0 is "no parent"
	ops := 0
	for _, sp := range rc.spans {
		ct := byName[sp.Name]
		if ct == nil {
			ct = &callTotal{Name: sp.Name}
			byName[sp.Name] = ct
		}
		ct.Count++
		ct.VirtNS += sp.VirtEnd - sp.VirtStart
		ct.HostNS += sp.HostEnd - sp.HostStart
		if sp.Parent == 0 {
			if sp.Name == "op" {
				ops++
			}
			keep[sp.ID] = ops%tf.Stride == 0
		}
		if keep[sp.ID] || keep[sp.Parent] {
			tf.Spans = append(tf.Spans, sp)
		}
	}
	for _, ct := range byName {
		tf.Calls = append(tf.Calls, *ct)
	}
	sort.Slice(tf.Calls, func(i, j int) bool { return tf.Calls[i].Name < tf.Calls[j].Name })
	return tf
}

// writeJSON writes v to out/<name>, creating the directory.
func writeJSON(name string, v any) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(outDir, name), data, 0o644)
}
