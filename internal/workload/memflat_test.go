package workload

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faultinj"
	"repro/internal/hw"
	"repro/internal/kernel"
	"repro/internal/msg"
	"repro/internal/sanitize"
)

// TestMemoryFlatInRunLength is the gate for state that grows with run length:
// each mix runs at one length and at four times it, and the heap still in use
// at quiescence — after a collection, with the OS live — must grow less than
// 1.25×. kv_planes' mix, with the flow, failover and fault planes attached,
// is where the never-pruned dedup table lived (3.6× here while it did); the
// fault-free futex and migration mixes catch the next table of the kind.
func TestMemoryFlatInRunLength(t *testing.T) {
	for _, tc := range []struct {
		name string
		n    int // the short run's length; the long one runs 4n
		run  func(o *core.OS, n int) (Result, error)
	}{
		{"kv_planes", 250, func(o *core.OS, n int) (Result, error) {
			o.EnableFlow(msg.DefaultFlowConfig())
			o.EnableFailover()
			o.EnableFaults(&faultinj.Plan{Seed: 1}, msg.DefaultFaultConfig())
			return KVStore(o, KVStoreSpec{Shards: 32, Clients: 32, OpsPerClient: n,
				PutRatioPct: 10, LocalityPct: 50, KeysPerShard: 2, Think: 2 * time.Microsecond, Seed: 1})
		}},
		{"futex_shared", 8, func(o *core.OS, n int) (Result, error) {
			return FutexChain(o, FutexChainSpec{Threads: 64, Iters: n, CS: 2 * time.Microsecond, Shared: true})
		}},
		{"migration", 50, func(o *core.OS, n int) (Result, error) {
			return MigrationBenefit(o, MigrationBenefitSpec{Pages: 8, Rounds: n, Migrate: true})
		}},
	} {
		heap := func(n int) uint64 {
			// Booted by hand: bootPopcorn's cleanup would keep the OS reachable
			// until the test ends, and the short run's heap in the long one's.
			machine, err := hw.NewMachine(hw.Topology{Cores: 64, NUMANodes: 2}, hw.DefaultCostModel())
			if err != nil {
				t.Fatal(err)
			}
			cc := kernel.DefaultClusterConfig(machine)
			cc.Kernels = 8
			o, err := core.Boot(core.Config{Topology: machine.Topology, Cluster: &cc})
			if err != nil {
				t.Fatal(err)
			}
			defer o.Close()
			if _, err := tc.run(o, n); err != nil {
				t.Fatalf("%s at %d: %v", tc.name, n, err)
			}
			runtime.GC()
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			return ms.HeapAlloc
		}
		short, long := heap(tc.n), heap(4*tc.n)
		if float64(long) >= 1.25*float64(short) {
			t.Errorf("%s: heap in use %.2f MB at %d, %.2f MB at %d: grows %.2f× with run length, want < 1.25×",
				tc.name, float64(short)/(1<<20), tc.n, float64(long)/(1<<20), 4*tc.n, float64(long)/float64(short))
		}
	}
}

// TestSanitizedMemoryFlatInRunLength is the same gate with the coherence
// sanitizer attached, on one thread's private map → touch → unmap loop: each
// iteration makes four directory entries and drops them, so a checker that
// kept a lock clock per entry it ever saw (it once did: 1.69 MB live at 1 000
// iterations, 6.53 MB at 4 000) would keep every entry alive with it.
func TestSanitizedMemoryFlatInRunLength(t *testing.T) {
	const n = 1000 // the short run's iterations; the long one runs 4n
	heap := func(iters int) uint64 {
		// Booted by hand, as above.
		topo := hw.Topology{Cores: 8, NUMANodes: 2}
		machine, err := hw.NewMachine(topo, hw.DefaultCostModel())
		if err != nil {
			t.Fatal(err)
		}
		cc := kernel.DefaultClusterConfig(machine)
		cc.Kernels = 4
		o, err := core.Boot(core.Config{Topology: topo, Cluster: &cc})
		if err != nil {
			t.Fatal(err)
		}
		defer o.Close()
		c := o.AttachSanitizer(sanitize.Config{})
		if _, err := MmapStorm(o, MmapStormSpec{Threads: 1, Iters: iters, Pages: 4}); err != nil {
			t.Fatalf("mmapstorm at %d: %v", iters, err)
		}
		if r := c.Report(); r != "" {
			t.Fatalf("mmapstorm at %d: sanitizer reports:\n%s", iters, r)
		}
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	short, long := heap(n), heap(4*n)
	if float64(long) >= 1.25*float64(short) {
		t.Errorf("heap in use %.2f MB at %d iterations, %.2f MB at %d: grows %.2f× with run length, want < 1.25×",
			float64(short)/(1<<20), n, float64(long)/(1<<20), 4*n, float64(long)/float64(short))
	}
}
