package vetcheck

import "testing"

// Positive: a registered handler grabbing a peer endpoint, an
// interface-asserted method indexing the cluster table and a spawn callback
// ranging over it. Holding machine-wide infrastructure (the fabric, the
// checker) in a field is not a finding.
func TestKernLocalPositives(t *testing.T) {
	got := findingsFor(t, map[string]string{
		"internal/vm/svc.go": `package vm

import (
	"repro/internal/msg"
	"repro/internal/sanitize"
	"repro/internal/sim"
)

type Service struct {
	ep      *msg.Endpoint
	fabric  *msg.Fabric
	checker *sanitize.Checker
}

func NewService(f *msg.Fabric) *Service {
	s := &Service{fabric: f}
	s.ep.Handle(msg.TypePageFetch, s.handleFetch)
	return s
}

func (s *Service) handleFetch(p *sim.Proc, m *msg.Message) *msg.Message {
	peer := s.fabric.Endpoint(m.From)
	_ = peer
	s.checker.AccessRead(p, 0, 0, 0, 0)
	return nil
}
`,
		"internal/core/os.go": `package core

type OS struct{ cluster *Cluster }

type Cluster struct{ Kernels []int }

type iface interface{ Run() }

var _ iface = (*OS)(nil)

func (o *OS) Run() {
	_ = o.cluster.Kernels[2]
	e := engine()
	e.Schedule(0, func() {
		for range o.cluster.Kernels {
		}
	})
}

type eng struct{}

func engine() *eng                         { return &eng{} }
func (e *eng) Schedule(d int, fn func())   {}
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
}

// Negative: packages outside the kernel-side set (the bench harness, the
// host-side CLI) may inspect any kernel they like.
func TestKernLocalNonKernelSideExempt(t *testing.T) {
	got := findingsFor(t, map[string]string{
		"internal/bench/b.go": `package bench

type cluster struct{ Kernels []int }

func Probe(c *cluster) int {
	total := 0
	for range c.Kernels {
		total++
	}
	_ = c.Kernels[0]
	return total
}
`,
	}, KernLocal{})
	if len(got) != 0 {
		t.Fatalf("non-kernel-side packages must be exempt, got:\n%s", renderFindings(got))
	}
}

// Positive: the unexported endpoint table is foreign state even inside the
// msg package's own handler-reachable code.
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
