package vetcheck

import "testing"

// Positive: map ranges whose order escapes (sending per key, appending
// without a sort, writing trace records), a single-key sort.Slice, and a
// wall-clock read in a kernel-side package outside the sim-managed set.
func TestDetOrderPositives(t *testing.T) {
	got := findingsFor(t, map[string]string{
		"internal/vm/dir.go": `package vm

import (
	"repro/internal/msg"
	"repro/internal/sim"
	"sort"
)

type entry struct {
	sharers map[msg.NodeID]struct{}
}

type Service struct {
	ep    *msg.Endpoint
	dir   map[int]*entry
	procs []struct{ Name string; PID int }
}

func (s *Service) register() {
	s.ep.Handle(msg.TypePageInvalidate, s.handleInval)
}

func (s *Service) handleInval(p *sim.Proc, m *msg.Message) *msg.Message {
	sort.Slice(s.procs, func(i, j int) bool { return s.procs[i].PID < s.procs[j].PID })
	de := s.dir[0]
	for n := range de.sharers {
		s.ep.Send(p, &msg.Message{To: n})
	}
	var names []string
	for k := range s.dir {
		names = append(names, string(rune(k)))
	}
	_ = names
	return nil
}
`,
		"internal/core/clock.go": `package core

import "time"

type OS struct{}

type iface interface{ Tick() }

var _ iface = (*OS)(nil)

func (o *OS) Tick() {
	_ = time.Now()
}
`,
	}, DetOrder{})
	wantRules(t, got,
		"time.Now",
		"sort.Slice with a single-key comparator",
		"range over a map",
		"range over a map",
	)
}

// Negative: order-insensitive bodies — map-to-map copies, deletes, counter
// bumps — and the collect-keys-then-sort idiom are exempt.
func TestDetOrderInsensitiveBodiesExempt(t *testing.T) {
	got := findingsFor(t, map[string]string{
		"internal/vm/copy.go": `package vm

import (
	"repro/internal/msg"
	"repro/internal/sim"
	"slices"
	"sort"
)

type Service struct {
	ep *msg.Endpoint
	m  map[int]int
}

func (s *Service) register() {
	s.ep.Handle(msg.TypePing, s.handlePing)
}

func (s *Service) handlePing(p *sim.Proc, mm *msg.Message) *msg.Message {
	dst := make(map[int]int)
	count := 0
	for k, v := range s.m {
		dst[k] = v
		count++
	}
	for k := range s.m {
		if k < 0 {
			delete(s.m, k)
		}
	}
	var keys []int
	for k := range s.m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	for _, k := range s.keysInto(keys[:0]) {
		s.ep.Send(p, &msg.Message{To: msg.NodeID(k)})
	}
	return nil
}

func (s *Service) keysInto(buf []int) []int {
	for k := range s.m {
		buf = append(buf, k)
	}
	slices.Sort(buf)
	return buf
}
`,
	}, DetOrder{})
	if len(got) != 0 {
		t.Fatalf("order-insensitive map ranges must be exempt, got:\n%s", renderFindings(got))
	}
}

// Negative: tie-broken and raw-value comparators are total; slice ranges
// are ordered by construction; non-kernel-side packages are out of scope.
func TestDetOrderTotalComparatorsAndScope(t *testing.T) {
	got := findingsFor(t, map[string]string{
		"internal/sim/sorts.go": `package sim

import "sort"

type wait struct{ PID, Seq int }

func (e *Engine) Report(ws []wait, ids []int) {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	sort.Slice(ws, func(i, j int) bool {
		if ws[i].PID != ws[j].PID {
			return ws[i].PID < ws[j].PID
		}
		return ws[i].Seq < ws[j].Seq
	})
	sort.SliceStable(ws, func(i, j int) bool { return ws[i].PID < ws[j].PID })
	for range ws {
	}
}

type Engine struct{}
`,
		"internal/stats/host.go": `package stats

type Registry struct{ m map[string]int }

func (r *Registry) Dump() {
	for k := range r.m {
		_ = k
	}
}
`,
	}, DetOrder{})
	if len(got) != 0 {
		t.Fatalf("total comparators, slice ranges and host-side packages must pass, got:\n%s", renderFindings(got))
	}
}

// Negative: functions no handler can reach are out of scope even in
// kernel-side packages (setup helpers iterate maps freely).
func TestDetOrderUnreachableExempt(t *testing.T) {
	got := findingsFor(t, map[string]string{
		"internal/vm/setup.go": `package vm

type Service struct{ m map[int]int }

func NewService(seed map[int]int) *Service {
	s := &Service{m: make(map[int]int)}
	for k, v := range seed {
		_ = v
		s.slowInit(k)
	}
	return s
}

func (s *Service) slowInit(k int) {
	for q := range s.m {
		s.slowInit(q)
	}
}
`,
	}, DetOrder{})
	if len(got) != 0 {
		t.Fatalf("setup-only code must be exempt, got:\n%s", renderFindings(got))
	}
}

// Positive: the trace package's export surface is in scope even though it
// is not sim-managed — export order must be deterministic.
func TestDetOrderTraceExportInScope(t *testing.T) {
	got := findingsFor(t, map[string]string{
		"internal/trace/export.go": `package trace

type Collector struct{ spans map[uint64]string }

func (c *Collector) Export() []string {
	var out []string
	for _, s := range c.spans {
		out = append(out, s)
	}
	return out
}
`,
	}, DetOrder{})
	wantRules(t, got, "range over a map")
}
