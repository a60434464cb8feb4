package workload

import (
	"testing"
	"time"
)

func TestKVStoreScalesOnPopcorn(t *testing.T) {
	// Sharded servers are the paper's sweet spot: throughput should grow
	// with client count on the replicated kernel.
	run := func(clients int) Result {
		pop := bootPopcorn(t, 64, 2, 8)
		res, err := KVStore(pop, KVStoreSpec{
			Shards: 16, Clients: clients, OpsPerClient: 10,
			PutRatioPct: 10, KeysPerShard: 2, Think: 2 * time.Microsecond, Seed: 3,
		})
		if err != nil {
			t.Fatalf("kvstore(%d): %v", clients, err)
		}
		return res
	}
	small, large := run(4), run(32)
	if large.Throughput() <= small.Throughput() {
		t.Fatalf("throughput did not scale: %d clients %.0f ops/s vs %d clients %.0f ops/s",
			4, small.Throughput(), 32, large.Throughput())
	}
}

// TestKVOpsWithoutLocalityIgnoreKernels: with LocalityPct 0 a client's
// shards are uniformly random, so its op stream must be the same on one
// kernel (smp) as on a machine with more kernels than shards, where some
// clients have no home shard.
func TestKVOpsWithoutLocalityIgnoreKernels(t *testing.T) {
	spec := KVStoreSpec{Shards: 4, Clients: 16, OpsPerClient: 50, PutRatioPct: 50, KeysPerShard: 2, Seed: 7}
	for _, kernels := range []int{2, 4, 8, 16} {
		for c := 0; c < spec.Clients; c++ {
			want, got := newKVOps(spec, c, 1), newKVOps(spec, c, kernels)
			for i := 0; i < spec.OpsPerClient; i++ {
				if w, g := want.next(), got.next(); w != g {
					t.Fatalf("%d kernels: client %d op %d = %+v, want %+v as on one kernel", kernels, c, i, g, w)
				}
			}
		}
	}
}

func TestKVStoreValidation(t *testing.T) {
	pop := bootPopcorn(t, 8, 2, 2)
	if _, err := KVStore(pop, KVStoreSpec{}); err == nil {
		t.Fatal("empty spec accepted")
	}
}

func TestXorshiftDeterministic(t *testing.T) {
	a, b := newXorshift(5), newXorshift(5)
	for i := 0; i < 100; i++ {
		if a.next() != b.next() {
			t.Fatal("xorshift not deterministic")
		}
	}
	if newXorshift(0).next() == 0 {
		t.Fatal("zero seed produces zero stream")
	}
}
