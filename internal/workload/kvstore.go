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
		// replicated kernel, read replicas of hot shard pages). Each client
		// draws its ops as it goes from its own generator; a first pass over
		// the same draws counts the puts each shard must end up with.
		expectPuts := make([]int64, spec.Shards)
		for c := 0; c < spec.Clients; c++ {
			ops := newKVOps(spec, c, kernels)
			for i := 0; i < spec.OpsPerClient; i++ {
				if o := ops.next(); o.put {
					expectPuts[o.shard]++
				}
			}
		}
		for c := 0; c < spec.Clients; c++ {
			if err := pr.Spawn(p, c%kernels, func(th osi.Thread) {
				ops := newKVOps(spec, c, kernels)
				for i := 0; i < spec.OpsPerClient; i++ {
					o := ops.next()
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

// kvOp is one client operation: a get or a put of one key of one shard.
type kvOp struct {
	shard, key int
	put        bool
}

// kvOps generates one client's op sequence, one op per next call, from the
// client's own xorshift: the same spec and client always give the same
// sequence, so the clients' run and the count of expected puts replay it
// alike without keeping it.
type kvOps struct {
	rng  xorshift
	spec KVStoreSpec
	// The client's home shards are first, first+stride, ... (nHome of
	// them): those placed on its kernel, or every shard on one kernel.
	first, stride, nHome int
}

// newKVOps starts client c's sequence on a machine of the given kernels.
func newKVOps(spec KVStoreSpec, c, kernels int) kvOps {
	g := kvOps{rng: *newXorshift(uint64(spec.Seed) + uint64(c)*2654435761 + 1), spec: spec, stride: 1}
	if kernels > 1 {
		g.first, g.stride = c%kernels, kernels
	}
	if g.first < spec.Shards {
		g.nHome = (spec.Shards - g.first + g.stride - 1) / g.stride
	}
	return g
}

// next draws the client's next op.
func (g *kvOps) next() kvOp {
	shard := int(g.rng.next() % uint64(g.spec.Shards))
	if g.nHome > 0 && int(g.rng.next()%100) < g.spec.LocalityPct {
		shard = g.first + g.stride*int(g.rng.next()%uint64(g.nHome))
	}
	return kvOp{
		shard: shard,
		key:   int(g.rng.next() % uint64(g.spec.KeysPerShard)),
		put:   int(g.rng.next()%100) < g.spec.PutRatioPct,
	}
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
