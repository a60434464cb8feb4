package vetcheck

import "testing"

// Positive: a registered handler grabbing a peer endpoint, a syscall-surface
// method indexing the cluster table and an engine callback ranging over it.
// Holding machine-wide infrastructure (the fabric) in a field is not a
// finding.
func TestKernLocalPositives(t *testing.T) {
	got := findingsFor(t, map[string]string{
		"internal/vm/svc.go": `package vm

import (
	"repro/internal/msg"
	"repro/internal/sim"
)

type Service struct {
	ep     *msg.Endpoint
	fabric *msg.Fabric
}

func NewService(f *msg.Fabric) *Service {
	s := &Service{fabric: f}
	s.ep.Handle(msg.TypePageFetch, s.handleFetch)
	return s
}

func (s *Service) handleFetch(p *sim.Proc, m *msg.Message) *msg.Message {
	peer := s.fabric.Endpoint(m.From)
	_ = peer
	return nil
}
`,
		"internal/core/os.go": `package core

import (
	"repro/internal/kernel"
	"repro/internal/sim"
)

type OS struct {
	cluster *kernel.Cluster
	e       *sim.Engine
}

func (o *OS) Run() {
	_ = o.cluster.Kernels[2]
	o.e.Schedule(0, func() {
		for range o.cluster.Kernels {
		}
	})
}
`,
	}, KernLocal{})
	wantRules(t, got,
		"handler path indexes the cluster table",
		"ranges over the cluster table",
		"obtains a kernel endpoint by node ID",
	)
}

// Negative: setup-only code (constructors, Set*/Attach* configuration) may
// wire endpoints and cluster tables — it runs before the engine starts.
// Positive: what it registers as a callback does not, so the literals inside
// a setup function are policed like any handler (core.EnableFaults' hooks).
func TestKernLocalSetupCodeExempt(t *testing.T) {
	got := findingsFor(t, map[string]string{
		"internal/vm/svc.go": `package vm

import "repro/internal/msg"

type Service struct {
	ep *msg.Endpoint
}

func NewService(f *msg.Fabric, node msg.NodeID) *Service {
	return &Service{ep: f.Endpoint(node)}
}

func (s *Service) SetPeerProbe(f *msg.Fabric) {
	_ = f.Endpoint(0)
}
`,
	}, KernLocal{})
	if len(got) != 0 {
		t.Fatalf("setup code must be exempt, got:\n%s", renderFindings(got))
	}

	got = findingsFor(t, map[string]string{
		"internal/core/faults.go": `package core

import "repro/internal/kernel"

type OS struct {
	cluster *kernel.Cluster
	onCrash func(n int)
}

func (o *OS) EnableFaults() {
	_ = o.cluster.Kernels[0] // setup itself: exempt
	o.onCrash = func(n int) {
		_ = o.cluster.Kernels[n] // runs as an event: policed
	}
}
`,
	}, KernLocal{})
	wantRules(t, got, "handler path indexes the cluster table")
	if got[0].Pos.Line != 13 {
		t.Errorf("flagged line %d, want 13 (inside the hook literal)", got[0].Pos.Line)
	}
}

// Negative: packages outside the kernel-side set (the bench harness, the
// host-side CLI) may inspect any kernel they like, and a field that merely
// shares the table's name is not the cluster table.
func TestKernLocalNonKernelSideExempt(t *testing.T) {
	got := findingsFor(t, map[string]string{
		"internal/bench/b.go": `package bench

import "repro/internal/kernel"

func Probe(c *kernel.Cluster) int {
	total := 0
	for range c.Kernels {
		total++
	}
	_ = c.Kernels[0]
	return total
}
`,
		"internal/sched/pool.go": `package sched

type pool struct{ Kernels []int }

func (p *pool) First() int { return p.Kernels[0] }
`,
	}, KernLocal{})
	if len(got) != 0 {
		t.Fatalf("non-kernel-side packages and namesake fields must be exempt, got:\n%s", renderFindings(got))
	}
}

// Positive: the unexported endpoint table is foreign state even inside the
// msg package's own event-context code.
func TestKernLocalEndpointTableIndex(t *testing.T) {
	got := findingsFor(t, map[string]string{
		"internal/msg/fabric.go": `package msg

type Fabric struct {
	endpoints []*Endpoint
}

type Endpoint struct{ f *Fabric }

func (f *Fabric) Deliver(m int) {
	dst := f.endpoints[m]
	_ = dst
}
`,
	}, KernLocal{})
	wantRules(t, got, "indexes the endpoint table")
}
