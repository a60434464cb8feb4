package workload

import (
	"fmt"

	"repro/internal/hw"
	"repro/internal/mem"
	"repro/internal/multikernel"
	"repro/internal/sim"
)

// The multikernel (Barrelfish-like) variants of the workloads. These are
// explicit ports: no shared memory, no transparent placement — the
// application is decomposed into per-kernel domains that exchange
// messages, exactly as the same benchmarks had to be ported to Barrelfish
// for the paper's comparison.

// MKThreadBomb is the F1 port: spawner domains create child domains on
// their own kernel (domain creation is purely kernel-local).
func MKThreadBomb(o *multikernel.OS, spec ThreadBombSpec) (Result, error) {
	return measure(o, "threadbomb", spec.Spawners, func(p *sim.Proc, _ *Result) (uint64, error) {
		wg := sim.NewWaitGroup()
		for i := 0; i < spec.Spawners; i++ {
			k := i % o.Kernels()
			if _, err := o.SpawnDomain(p, k, wg, func(d *multikernel.Domain) {
				inner := sim.NewWaitGroup()
				for c := 0; c < spec.Children; c++ {
					if _, err := o.SpawnDomain(d.Proc(), d.KernelID(), inner, func(*multikernel.Domain) {}); err != nil {
						panic(fmt.Errorf("mk threadbomb child: %w", err))
					}
				}
				inner.Wait(d.Proc())
			}); err != nil {
				return 0, err
			}
		}
		wg.Wait(p)
		return uint64(spec.Spawners * spec.Children), nil
	})
}

// MKMemStorm is the F4 port: domains allocate, touch and free private
// memory — no shared VMA tree exists to contend on.
func MKMemStorm(o *multikernel.OS, spec MmapStormSpec) (Result, error) {
	return measure(o, "mmapstorm", spec.Threads, func(p *sim.Proc, _ *Result) (uint64, error) {
		wg := sim.NewWaitGroup()
		for i := 0; i < spec.Threads; i++ {
			k := i % o.Kernels()
			if _, err := o.SpawnDomain(p, k, wg, func(d *multikernel.Domain) {
				for it := 0; it < spec.Iters; it++ {
					addr, err := d.Alloc(spec.Pages)
					if err != nil {
						panic(fmt.Errorf("mk memstorm alloc: %w", err))
					}
					for pg := 0; pg < spec.Pages; pg++ {
						if err := d.Store(addr+mem.Addr(pg*hw.PageSize), int64(it)); err != nil {
							panic(fmt.Errorf("mk memstorm store: %w", err))
						}
					}
					if err := d.Free(addr, spec.Pages); err != nil {
						panic(fmt.Errorf("mk memstorm free: %w", err))
					}
				}
			}); err != nil {
				return 0, err
			}
		}
		wg.Wait(p)
		return uint64(spec.Threads * spec.Iters), nil
	})
}

// MKFaultSweep is the F6 port: domains allocate and touch large private
// regions. Allocation is eager on a multikernel (capabilities), so the
// "fault" cost is folded into Alloc.
func MKFaultSweep(o *multikernel.OS, spec FaultSweepSpec) (Result, error) {
	return measure(o, "faultsweep", spec.Threads, func(p *sim.Proc, _ *Result) (uint64, error) {
		wg := sim.NewWaitGroup()
		for i := 0; i < spec.Threads; i++ {
			k := i % o.Kernels()
			if _, err := o.SpawnDomain(p, k, wg, func(d *multikernel.Domain) {
				addr, err := d.Alloc(spec.Pages)
				if err != nil {
					panic(fmt.Errorf("mk faultsweep alloc: %w", err))
				}
				for pg := 0; pg < spec.Pages; pg++ {
					if err := d.Store(addr+mem.Addr(pg*hw.PageSize), 1); err != nil {
						panic(fmt.Errorf("mk faultsweep store: %w", err))
					}
				}
			}); err != nil {
				return 0, err
			}
		}
		wg.Wait(p)
		return uint64(spec.Threads * spec.Pages), nil
	})
}

// mkReduceMsg is the CG-port reduction message.
type mkReduceMsg struct {
	from  *multikernel.Domain
	value int64
}

// MKComputeKernel is the F7 port: compute plus explicit message-based
// coordination replacing the shared-memory scatter/reduce/exchange.
func MKComputeKernel(o *multikernel.OS, spec ComputeKernelSpec) (Result, error) {
	if !kernelNames[spec.Kernel] {
		return Result{}, fmt.Errorf("workload: unknown compute kernel %q", spec.Kernel)
	}
	name := "npb-" + spec.Kernel
	return measure(o, name, spec.Threads, func(p *sim.Proc, _ *Result) (uint64, error) {
		T := spec.Threads
		wg := sim.NewWaitGroup()
		workers := make([]*multikernel.Domain, T)
		// Start workers suspended on their first Recv; the coordinator
		// releases them with a start token carrying the peer list.
		for i := 0; i < T; i++ {
			i := i
			k := i % o.Kernels()
			d, err := o.SpawnDomain(p, k, wg, func(d *multikernel.Domain) {
				payload, _ := d.Recv()
				peers := payload.([]*multikernel.Domain)
				coordinator := peers[len(peers)-1]
				buf, err := d.Alloc(T + 1)
				if err != nil {
					panic(fmt.Errorf("mk npb alloc: %w", err))
				}
				for it := 0; it < spec.Iters; it++ {
					d.Compute(spec.Work)
					switch spec.Kernel {
					case KernelEP:
						if it == spec.Iters-1 {
							d.Send(coordinator, 64, &mkReduceMsg{from: d, value: int64(i + 1)})
							d.Recv()
						}
					case KernelMG:
						// Halo exchange with ring neighbours over channels.
						for _, nb := range []int{(i + 1) % T, (i + T - 1) % T} {
							if nb != i {
								d.Send(peers[nb], hw.PageSize, int64(it))
							}
						}
						recv := 2
						if T == 1 {
							recv = 0
						} else if T == 2 {
							recv = 2 // both directions arrive from the same peer
						}
						for n := 0; n < recv; n++ {
							payload, _ := d.Recv()
							if payload.(int64) != int64(it) {
								panic("mk mg: iteration skew")
							}
						}
					case KernelIS:
						// Scatter: local bucket writes, then one summary
						// message per remote peer.
						for s := 0; s < T; s++ {
							if err := d.Store(buf+mem.Addr(s*hw.PageSize), int64(it)); err != nil {
								panic(fmt.Errorf("mk is store: %w", err))
							}
						}
						for s := 0; s < T; s++ {
							if s != i {
								d.Send(peers[s], 256, int64(it))
							}
						}
						for s := 0; s < T-1; s++ {
							d.Recv()
						}
					case KernelCG:
						// Reduce to the coordinator, await the result.
						d.Send(coordinator, 64, &mkReduceMsg{from: d, value: int64(i + 1)})
						d.Recv()
					case KernelFT:
						// All-to-all page-sized exchange.
						for s := 0; s < T; s++ {
							if s != i {
								d.Send(peers[s], hw.PageSize, int64(it))
							}
						}
						for s := 0; s < T-1; s++ {
							payload, _ := d.Recv()
							if payload.(int64) != int64(it) {
								panic("mk ft: iteration skew")
							}
						}
					}
					if spec.Kernel != KernelEP {
						// Barrier through the coordinator.
						d.Send(coordinator, 64, &mkReduceMsg{from: d})
						d.Recv()
					}
				}
			})
			if err != nil {
				return 0, err
			}
			workers[i] = d
		}
		// Coordinator domain: runs the reduction and the barrier.
		coord, err := o.SpawnDomain(p, 0, wg, func(d *multikernel.Domain) {
			if spec.Kernel == KernelEP {
				// EP: a single final reduction, no per-iteration barriers.
				total := int64(0)
				froms := make([]*multikernel.Domain, 0, T)
				for n := 0; n < T; n++ {
					payload, _ := d.Recv()
					m := payload.(*mkReduceMsg)
					total += m.value
					froms = append(froms, m.from)
				}
				if total != int64(T*(T+1)/2) {
					panic(fmt.Sprintf("mk ep reduction = %d", total))
				}
				for _, f := range froms {
					d.Send(f, 64, total)
				}
				return
			}
			for it := 0; it < spec.Iters; it++ {
				if spec.Kernel == KernelCG {
					total := int64(0)
					froms := make([]*multikernel.Domain, 0, T)
					for n := 0; n < T; n++ {
						payload, _ := d.Recv()
						m := payload.(*mkReduceMsg)
						total += m.value
						froms = append(froms, m.from)
					}
					if total != int64(T*(T+1)/2) {
						panic(fmt.Sprintf("mk cg reduction = %d", total))
					}
					for _, f := range froms {
						d.Send(f, 64, total)
					}
				}
				// Barrier: collect T arrivals, release all.
				froms := make([]*multikernel.Domain, 0, T)
				for n := 0; n < T; n++ {
					payload, _ := d.Recv()
					froms = append(froms, payload.(*mkReduceMsg).from)
				}
				for _, f := range froms {
					d.Send(f, 64, struct{}{})
				}
			}
		})
		if err != nil {
			return 0, err
		}
		// Release the workers.
		start := append(append([]*multikernel.Domain(nil), workers...), coord)
		for _, w := range workers {
			// The driver has no domain; deliver via a bootstrap domain.
			w := w
			boot := sim.NewWaitGroup()
			if _, err := o.SpawnDomain(p, w.KernelID(), boot, func(d *multikernel.Domain) {
				d.Send(w, 64, start)
			}); err != nil {
				return 0, err
			}
			boot.Wait(p)
		}
		wg.Wait(p)
		return uint64(spec.Iters * T), nil
	})
}
