package hw

import (
	"testing"
	"testing/quick"
	"time"
)

func TestTopologyValidate(t *testing.T) {
	tests := []struct {
		name    string
		topo    Topology
		wantErr bool
	}{
		{"valid single node", Topology{Cores: 4, NUMANodes: 1}, false},
		{"valid dual socket", Topology{Cores: 64, NUMANodes: 2}, false},
		{"zero cores", Topology{Cores: 0, NUMANodes: 1}, true},
		{"zero nodes", Topology{Cores: 4, NUMANodes: 0}, true},
		{"uneven split", Topology{Cores: 5, NUMANodes: 2}, true},
		{"negative cores", Topology{Cores: -1, NUMANodes: 1}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.topo.validate()
			if (err != nil) != tt.wantErr {
				t.Fatalf("Validate() = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

// TestNodeOfContiguousBlocks checks that NodeOf maps cores to nodes in
// contiguous blocks, node core/CoresPerNode, on every valid topology up to
// 16 nodes of 16 cores.
func TestNodeOfContiguousBlocks(t *testing.T) {
	for nodes := 1; nodes <= 16; nodes++ {
		for per := 1; per <= 16; per++ {
			topo := Topology{Cores: nodes * per, NUMANodes: nodes}
			for core := 0; core < topo.Cores; core++ {
				if got, want := topo.NodeOf(core), core/per; got != want {
					t.Fatalf("%d cores on %d nodes: NodeOf(%d) = %d, want %d", topo.Cores, nodes, core, got, want)
				}
			}
		}
	}
}

func TestNodeOfOutOfRangePanics(t *testing.T) {
	topo := Topology{Cores: 4, NUMANodes: 1}
	defer func() {
		if recover() == nil {
			t.Fatal("NodeOf(-1) did not panic")
		}
	}()
	topo.NodeOf(-1)
}

func TestSameNode(t *testing.T) {
	topo := Topology{Cores: 8, NUMANodes: 2}
	if !topo.SameNode(0, 3) {
		t.Fatal("cores 0 and 3 should share node 0")
	}
	if topo.SameNode(3, 4) {
		t.Fatal("cores 3 and 4 should be on different nodes")
	}
}

func TestNodeOfPropertyInRange(t *testing.T) {
	f := func(cores, nodes uint8, core uint16) bool {
		c := int(cores%64) + 1
		n := int(nodes%4) + 1
		c = c * n // ensure divisibility
		topo := Topology{Cores: c, NUMANodes: n}
		if topo.validate() != nil {
			return true // skip invalid
		}
		node := topo.NodeOf(int(core) % c)
		return node >= 0 && node < n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func newTestMachine(t *testing.T) *Machine {
	t.Helper()
	m, err := NewMachine(Topology{Cores: 8, NUMANodes: 2}, DefaultCostModel())
	if err != nil {
		t.Fatalf("NewMachine: %v", err)
	}
	return m
}

func TestNewMachineRejectsBadTopology(t *testing.T) {
	if _, err := NewMachine(Topology{Cores: 3, NUMANodes: 2}, DefaultCostModel()); err == nil {
		t.Fatal("NewMachine accepted an invalid topology")
	}
}

func TestIPICosts(t *testing.T) {
	m := newTestMachine(t)
	if got := m.IPI(0, 1); got != m.Cost.IPILocal {
		t.Fatalf("same-node IPI = %v, want %v", got, m.Cost.IPILocal)
	}
	if got := m.IPI(0, 7); got != m.Cost.IPIRemote {
		t.Fatalf("cross-node IPI = %v, want %v", got, m.Cost.IPIRemote)
	}
}

func TestMemAccessCosts(t *testing.T) {
	m := newTestMachine(t)
	if got := m.MemAccess(0, 0); got != m.Cost.MemAccessLocal {
		t.Fatalf("local access = %v, want %v", got, m.Cost.MemAccessLocal)
	}
	if got := m.MemAccess(0, 1); got != m.Cost.MemAccessRemote {
		t.Fatalf("remote access = %v, want %v", got, m.Cost.MemAccessRemote)
	}
}

func TestLineBounceGrowsWithSharers(t *testing.T) {
	m := newTestMachine(t)
	prev := time.Duration(0)
	for sharers := 0; sharers <= 8; sharers++ {
		c := m.LineBounce(sharers, 64, false)
		if c <= prev && sharers > 0 {
			t.Fatalf("LineBounce(%d) = %v, not greater than %v", sharers, c, prev)
		}
		prev = c
	}
	if m.LineBounce(4, 8, true) <= m.LineBounce(4, 8, false) {
		t.Fatal("cross-node line bounce not more expensive than local")
	}
	// A line bounces between at most cores-1 other caches, however many
	// wait for it.
	c := m.Cost
	for _, tc := range []struct {
		waiters, cores int
		cross          bool
		want           time.Duration
	}{
		{4, 8, false, c.AtomicOp + 4*c.LineTransferLocal},
		{7, 8, true, c.AtomicOp + 7*c.LineTransferRemote},
		{8, 8, false, c.AtomicOp + 7*c.LineTransferLocal},
		{100, 8, true, c.AtomicOp + 7*c.LineTransferRemote},
		{3, 1, true, c.AtomicOp},
		{3, 0, false, c.AtomicOp},
	} {
		if got := m.LineBounce(tc.waiters, tc.cores, tc.cross); got != tc.want {
			t.Errorf("LineBounce(%d, %d, %v) = %v, want %v", tc.waiters, tc.cores, tc.cross, got, tc.want)
		}
	}
}

func TestLineBounceUncontendedIsAtomicOnly(t *testing.T) {
	m := newTestMachine(t)
	if got := m.LineBounce(0, 8, true); got != m.Cost.AtomicOp {
		t.Fatalf("LineBounce(0) = %v, want bare atomic %v", got, m.Cost.AtomicOp)
	}
}

func TestTLBShootdownScalesWithCores(t *testing.T) {
	m := newTestMachine(t)
	local := m.TLBShootdown(1, 64, false)
	if local != m.Cost.TLBInvalidate {
		t.Fatalf("local-only shootdown = %v, want %v", local, m.Cost.TLBInvalidate)
	}
	four := m.TLBShootdown(5, 64, false)
	eight := m.TLBShootdown(9, 64, false)
	if eight <= four {
		t.Fatalf("shootdown(8)=%v not > shootdown(4)=%v", eight, four)
	}
	if m.TLBShootdown(5, 64, true) <= m.TLBShootdown(5, 64, false) {
		t.Fatal("cross-node shootdown not more expensive than local")
	}
	// The initiator interrupts the other cores its active threads can run
	// on: none for one thread, at most cores-1 for any number.
	c := m.Cost
	for _, tc := range []struct {
		active, cores int
		cross         bool
		want          time.Duration
	}{
		{0, 8, true, c.TLBInvalidate},
		{1, 8, true, c.TLBInvalidate},
		{5, 8, false, c.IPILocal + 4*c.TLBInvalidate},
		{8, 8, true, c.IPIRemote + 7*c.TLBInvalidate},
		{9, 8, false, c.IPILocal + 7*c.TLBInvalidate},
		{64, 8, true, c.IPIRemote + 7*c.TLBInvalidate},
		{4, 1, false, c.TLBInvalidate},
	} {
		if got := m.TLBShootdown(tc.active, tc.cores, tc.cross); got != tc.want {
			t.Errorf("TLBShootdown(%d, %d, %v) = %v, want %v", tc.active, tc.cores, tc.cross, got, tc.want)
		}
	}
}

func TestDefaultCostModelOrderings(t *testing.T) {
	// The model's qualitative structure, which the experiments rely on.
	c := DefaultCostModel()
	if c.MemAccessRemote <= c.MemAccessLocal {
		t.Error("remote memory access should cost more than local")
	}
	if c.LineTransferRemote <= c.LineTransferLocal {
		t.Error("remote line transfer should cost more than local")
	}
	if c.IPIRemote <= c.IPILocal {
		t.Error("remote IPI should cost more than local")
	}
	if c.PageCopyRemote <= c.PageCopyLocal {
		t.Error("remote page copy should cost more than local")
	}
	if c.SyscallTrap >= c.ContextSwitch {
		t.Error("a syscall trap should be cheaper than a full context switch")
	}
}
