package osi_test

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/kernel"
	"repro/internal/multikernel"
	"repro/internal/smp"
)

// TestBootRefusesBadPartition: every OS carves the machine into parts the
// same way (kernel.Carve: a popcorn or multikernel kernel, an SMP NUMA zone),
// part k's frames starting at frame k<<24, and boot refuses a carve-up a PTE
// cannot describe — frames past its 32-bit frame number, a part homed on a
// NUMA node past its 8 bits — and one whose parts' frames would overlap.
func TestBootRefusesBadPartition(t *testing.T) {
	closeOnSuccess := func(o interface{ Close() }, err error) error {
		if err == nil {
			o.Close()
		}
		return err
	}
	boots := map[string]func(topo hw.Topology, parts, frames int) error{
		"popcorn": func(topo hw.Topology, parts, frames int) error {
			machine, err := hw.NewMachine(topo, hw.DefaultCostModel())
			if err != nil {
				return err
			}
			cc := kernel.DefaultClusterConfig(machine)
			cc.Kernels, cc.FramesPerKernel = parts, frames
			return closeOnSuccess(core.Boot(core.Config{Topology: topo, Cluster: &cc}))
		},
		"multikernel": func(topo hw.Topology, parts, frames int) error {
			return closeOnSuccess(multikernel.Boot(multikernel.Config{Topology: topo, Kernels: parts, FramesPerKernel: frames}))
		},
		// SMP carves one part per NUMA node, so the topology sets parts.
		"smp": func(topo hw.Topology, _, frames int) error {
			return closeOnSuccess(smp.Boot(smp.Config{Topology: topo, FramesPerNode: frames}))
		},
	}
	for _, tc := range []struct {
		name          string
		topo          hw.Topology
		parts, frames int
		want          string
		// instead holds the refusals of OSes that meet another limit first.
		instead map[string]string
	}{
		// Part 127 ends at frame 1<<31. A popcorn cluster holds 64 kernels,
		// whose frames end by 1<<30, so it refuses the kernel count first.
		{"frames past 32 bits", hw.Topology{Cores: 128, NUMANodes: 128}, 128, 1 << 24, "do not fit a 32-bit frame number",
			map[string]string{"popcorn": "exceeds the 64 a kernel set holds"}},
		// SMP's zone on node 256 is its 257th part, and its frames would
		// start past 1<<31.
		{"node past 255", hw.Topology{Cores: 512, NUMANodes: 512}, 2, 1024, "NUMA node 256 does not fit",
			map[string]string{"smp": "do not fit a 32-bit frame number"}},
		{"part over the stride", hw.Topology{Cores: 8, NUMANodes: 2}, 2, 1<<24 + 1, "the stride between parts", nil},
	} {
		for name, boot := range boots {
			want := tc.want
			if w, ok := tc.instead[name]; ok {
				want = w
			}
			if err := boot(tc.topo, tc.parts, tc.frames); err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("%s: %s: Boot = %v, want a refusal containing %q", tc.name, name, err, want)
			}
		}
	}
}
