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

// Negative: setup-only functions are out of scope even in kernel-side
// packages (constructors and Set*/Attach* configuration iterate maps
// freely: they run before the engine starts). Positive: the callbacks they
// register are not setup — a literal inside a setup function is policed.
func TestDetOrderUnreachableExempt(t *testing.T) {
	got := findingsFor(t, map[string]string{
		"internal/vm/setup.go": `package vm

type Service struct {
	m     map[int]int
	order []int
}

func NewService(seed map[int]int) *Service {
	s := &Service{m: make(map[int]int)}
	for k := range seed {
		s.order = append(s.order, k)
	}
	return s
}

func (s *Service) SetSeeds(seed map[int]int) {
	for k := range seed {
		s.order = append(s.order, k)
	}
}
`,
	}, DetOrder{})
	if len(got) != 0 {
		t.Fatalf("setup-only code must be exempt, got:\n%s", renderFindings(got))
	}

	got = findingsFor(t, map[string]string{
		"internal/vm/invariant.go": `package vm

type Service struct {
	m     map[int]int
	check func() int
}

func (s *Service) AttachInvariant() {
	s.check = func() int {
		for k, v := range s.m {
			if v < 0 {
				return k // which entry a failure names depends on map order
			}
		}
		return 0
	}
}
`,
	}, DetOrder{})
	wantRules(t, got, "range over a map")
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

// Positive: what is ranged over is a map whatever the expression's shape —
// the result of a call, or a named map type declared in another package.
// Neither has a field or variable declaration to read a map type off.
func TestDetOrderMapBehindCallAndNamedType(t *testing.T) {
	got := findingsFor(t, map[string]string{
		"internal/mem/pt.go": `package mem

type Frames map[int]int

type PageTable struct{ m map[int]int }

func (pt *PageTable) All() map[int]int { return pt.m }
`,
		"internal/vm/drop.go": `package vm

import "repro/internal/mem"

type Service struct {
	pt     *mem.PageTable
	frames mem.Frames
	freed  []int
}

func (s *Service) Drop() {
	for _, f := range s.pt.All() {
		s.freed = append(s.freed, f)
	}
	for _, f := range s.frames {
		s.freed = append(s.freed, f)
	}
}
`,
	}, DetOrder{})
	wantRules(t, got, "range over a map", "range over a map")
}

// Negative: a type conversion is not a call. The collect-then-sort idiom
// stays exempt when the collected key is converted on the way.
func TestDetOrderConversionIsPure(t *testing.T) {
	got := findingsFor(t, map[string]string{
		"internal/vm/keys.go": `package vm

import "slices"

type nodeID int

type Service struct{ sharers map[nodeID]bool }

func (s *Service) Targets(dead nodeID) []int {
	var out []int
	n := 0
	for k := range s.sharers {
		if int(k) != int(dead) {
			out = append(out, int(k))
		}
		n += int(k)
	}
	slices.Sort(out)
	return append(out, n)
}
`,
	}, DetOrder{})
	if len(got) != 0 {
		t.Fatalf("conversions must not make a loop body order-sensitive, got:\n%s", renderFindings(got))
	}
}

// TestDetOrderHistoricalUnsortedFanout re-plants the defect detorder was
// written for (PR 6): invalidations sent to a page's sharers in map order,
// so two runs of one seed deliver them in different orders.
func TestDetOrderHistoricalUnsortedFanout(t *testing.T) {
	got := findingsFor(t, map[string]string{
		"internal/vm/inval.go": `package vm

import (
	"repro/internal/msg"
	"repro/internal/sim"
)

type dirEntry struct{ sharers map[msg.NodeID]struct{} }

type Service struct{ ep *msg.Endpoint }

func (s *Service) invalidate(p *sim.Proc, de *dirEntry) {
	for n := range de.sharers {
		s.ep.Send(p, &msg.Message{Type: msg.TypePageInvalidate, To: n})
	}
}
`,
	}, DetOrder{})
	wantRules(t, got, "range over a map")
}
