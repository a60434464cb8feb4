package workload

import (
	"fmt"
	"time"

	"repro/internal/hw"
	"repro/internal/mem"
	"repro/internal/osi"
	"repro/internal/sim"
)

// KVStoreSpec drives a sharded in-memory key-value store: one process,
// shard locks and data in shared memory, server threads pinned near their
// shards and client threads issuing gets/puts against random shards. On
// the replicated kernel shards and their futexes distribute across kernel
// instances; on SMP everything contends on the global futex hash and
// allocator. This is the macro shape of the paper's motivating server
// workloads, with genuine cross-thread data flow.
type KVStoreSpec struct {
	// Shards is the number of independent shard locks/regions.
	Shards int
	// Clients is the number of client threads.
	Clients int
	// OpsPerClient is the number of get/put operations each client issues.
	OpsPerClient int
	// PutRatioPct is the percentage of operations that are puts.
	PutRatioPct int
	// LocalityPct is the percentage of operations a client directs at its
	// home shards (shards placed on the client's kernel) — request routing
	// by shard, as sharded servers do. Zero means uniformly random shards.
	LocalityPct int
	// KeysPerShard sizes each shard's data region in pages.
	KeysPerShard int
	// Think is per-operation client compute (request parsing etc.).
	Think time.Duration
	// Seed drives the deterministic key/op sequence.
	Seed int64
}

// shardStride is the page layout of one shard: lock page + data pages.
func (s KVStoreSpec) shardStride() int { return 1 + s.KeysPerShard }

// KVStore runs the workload on o, returning ops completed. After the run
// it verifies that every shard's put counter matches the puts applied.
func KVStore(o osi.OS, spec KVStoreSpec) (Result, error) {
	if spec.Shards <= 0 || spec.Clients <= 0 || spec.KeysPerShard <= 0 {
		return Result{}, fmt.Errorf("workload: kvstore needs shards, clients and keys, got %+v", spec)
	}
	return measure(o, "kvstore", spec.Clients, func(p *sim.Proc, res *Result) (uint64, error) {
		pr, err := o.StartProcess(p)
		if err != nil {
			return 0, err
		}
		kernels := o.Kernels()
		stride := spec.shardStride()
		var base mem.Addr
		ready := sim.NewWaitGroup()
		ready.Add(1)
		if err := pr.Spawn(p, 0, func(th osi.Thread) {
			a, err := th.Mmap(uint64(spec.Shards*stride)*hw.PageSize, mem.ProtRead|mem.ProtWrite)
			if err != nil {
				panic(fmt.Errorf("kvstore mmap: %w", err))
			}
			base = a
			ready.Done()
		}); err != nil {
			return 0, err
		}
		ready.Wait(p)
		shardLock := func(s int) mem.Addr { return base + mem.Addr(s*stride*hw.PageSize) }
		keyAddr := func(s, k int) mem.Addr {
			return base + mem.Addr((s*stride+1+(k%spec.KeysPerShard))*hw.PageSize)
		}

		// Warmers: touch each shard from its "home" kernel so data
		// distributes across the machine as a sharded server would place it.
		warm := sim.NewWaitGroup()
		for s := 0; s < spec.Shards; s++ {
			s := s
			warm.Add(1)
			k := s % kernels
			if err := pr.Spawn(p, k, func(th osi.Thread) {
				defer warm.Done()
				for pg := 0; pg <= spec.KeysPerShard; pg++ {
					if err := th.Store(shardLock(s)+mem.Addr(pg*hw.PageSize), 0); err != nil {
						panic(fmt.Errorf("kvstore warm: %w", err))
					}
				}
			}); err != nil {
				return 0, err
			}
		}
		warm.Wait(p)
		clientsStart := p.Now()

		// Clients: puts take the shard lock; gets are lock-free single-word
		// reads, kept coherent by the memory system itself (on the
		// replicated kernel, read replicas of hot shard pages).
		expectPuts := make([]int64, spec.Shards)
		for c := 0; c < spec.Clients; c++ {
			c := c
			k := c % kernels
			// Precompute the client's op sequence deterministically so the
			// expected per-shard put counts are known up front.
			type op struct {
				shard, key int
				put        bool
			}
			rng := newXorshift(uint64(spec.Seed) + uint64(c)*2654435761 + 1)
			var homeShards []int
			for s := 0; s < spec.Shards; s++ {
				if kernels <= 1 || s%kernels == k {
					homeShards = append(homeShards, s)
				}
			}
			ops := make([]op, spec.OpsPerClient)
			for i := range ops {
				shard := int(rng.next() % uint64(spec.Shards))
				if len(homeShards) > 0 && int(rng.next()%100) < spec.LocalityPct {
					shard = homeShards[int(rng.next()%uint64(len(homeShards)))]
				}
				ops[i] = op{
					shard: shard,
					key:   int(rng.next() % uint64(spec.KeysPerShard)),
					put:   int(rng.next()%100) < spec.PutRatioPct,
				}
				if ops[i].put {
					expectPuts[ops[i].shard]++
				}
			}
			if err := pr.Spawn(p, k, func(th osi.Thread) {
				for _, o := range ops {
					if spec.Think > 0 {
						th.Compute(spec.Think)
					}
					if o.put {
						lock := NewFutexMutex(shardLock(o.shard))
						if err := lock.Lock(th); err != nil {
							panic(fmt.Errorf("kvstore lock: %w", err))
						}
						if _, err := th.FetchAdd(keyAddr(o.shard, o.key), 1); err != nil {
							panic(fmt.Errorf("kvstore put: %w", err))
						}
						if err := lock.Unlock(th); err != nil {
							panic(fmt.Errorf("kvstore unlock: %w", err))
						}
					} else {
						if _, err := th.Load(keyAddr(o.shard, o.key)); err != nil {
							panic(fmt.Errorf("kvstore get: %w", err))
						}
					}
				}
			}); err != nil {
				return 0, err
			}
		}
		pr.Wait(p)
		res.Elapsed = p.Now().Sub(clientsStart)

		// Verify: per-shard put totals must match exactly.
		verify := sim.NewWaitGroup()
		verify.Add(1)
		if err := pr.Spawn(p, 0, func(th osi.Thread) {
			defer verify.Done()
			for s := 0; s < spec.Shards; s++ {
				total := int64(0)
				for k := 0; k < spec.KeysPerShard; k++ {
					v, err := th.Load(keyAddr(s, k))
					if err != nil {
						panic(fmt.Errorf("kvstore verify: %w", err))
					}
					total += v
				}
				if total != expectPuts[s] {
					panic(fmt.Sprintf("kvstore shard %d: %d puts recorded, want %d", s, total, expectPuts[s]))
				}
			}
		}); err != nil {
			return 0, err
		}
		pr.Wait(p)
		if err := pr.Close(p); err != nil {
			return 0, err
		}
		return uint64(spec.Clients * spec.OpsPerClient), nil
	})
}

// xorshift is a tiny deterministic PRNG so op sequences are reproducible
// without touching the engine's source.
type xorshift struct{ s uint64 }

func newXorshift(seed uint64) *xorshift {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return &xorshift{s: seed}
}

func (x *xorshift) next() uint64 {
	x.s ^= x.s << 13
	x.s ^= x.s >> 7
	x.s ^= x.s << 17
	return x.s
}
