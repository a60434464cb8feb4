package workload

import (
	"fmt"
	"time"

	"repro/internal/hw"
	"repro/internal/mem"
	"repro/internal/osi"
	"repro/internal/sim"
)

// Kernel names for ComputeKernel (NPB-class shapes, class-S-like sizes).
const (
	// KernelIS is integer-sort-like: local compute then scatter into a
	// shared bucket array (mostly disjoint pages), barrier per iteration.
	KernelIS = "is"
	// KernelCG is conjugate-gradient-like: compute then a global scalar
	// reduction (one hot shared word), barrier per iteration.
	KernelCG = "cg"
	// KernelFT is FFT-like: compute then an all-to-all exchange through
	// shared memory (every thread writes one page per peer), barrier.
	KernelFT = "ft"
	// KernelEP is embarrassingly parallel: pure compute with one final
	// reduction — the baseline where every OS should tie.
	KernelEP = "ep"
	// KernelMG is multigrid-like: compute plus a nearest-neighbour halo
	// exchange (thread i shares one page with each of i-1 and i+1).
	KernelMG = "mg"
)

// kernelNames lists the valid ComputeKernel shapes.
var kernelNames = map[string]bool{
	KernelIS: true, KernelCG: true, KernelFT: true, KernelEP: true, KernelMG: true,
}

// ComputeKernelSpec drives F7.
type ComputeKernelSpec struct {
	Kernel string
	// Threads is the worker count (one process, threads spread across
	// kernels).
	Threads int
	// Iters is the number of outer iterations.
	Iters int
	// Work is the per-thread compute time per iteration.
	Work time.Duration
}

// ComputeKernel runs an NPB-like kernel on o and reports iterations
// completed as ops.
func ComputeKernel(o osi.OS, spec ComputeKernelSpec) (Result, error) {
	if !kernelNames[spec.Kernel] {
		return Result{}, fmt.Errorf("workload: unknown compute kernel %q", spec.Kernel)
	}
	name := "npb-" + spec.Kernel
	return measure(o, name, spec.Threads, func(p *sim.Proc, _ *Result) (uint64, error) {
		pr, err := o.StartProcess(p)
		if err != nil {
			return 0, err
		}
		kernels := o.Kernels()
		T := spec.Threads

		// Shared state layout: page 0 = barrier count, page 1 = barrier
		// sense, page 2 = reduction word, then the exchange area: T*T
		// pages (writer-major) so thread i writes pages [i*T, (i+1)*T).
		var base mem.Addr
		setup := sim.NewWaitGroup()
		setup.Add(1)
		if err := pr.Spawn(p, 0, func(th osi.Thread) {
			a, err := th.Mmap(uint64(3+T*T)*hw.PageSize, mem.ProtRead|mem.ProtWrite)
			if err != nil {
				panic(fmt.Errorf("npb mmap: %w", err))
			}
			base = a
			setup.Done()
		}); err != nil {
			return 0, err
		}
		setup.Wait(p)

		bar := newBarrier(T, base, base+hw.PageSize)
		redAddr := base + 2*hw.PageSize
		exch := func(writer, slot int) mem.Addr {
			return base + mem.Addr((3+writer*T+slot)*hw.PageSize)
		}

		for i := 0; i < T; i++ {
			i := i
			k := i % kernels
			if err := pr.Spawn(p, k, func(th osi.Thread) {
				for it := 0; it < spec.Iters; it++ {
					th.Compute(spec.Work)
					switch spec.Kernel {
					case KernelEP:
						// Pure compute; reduce only on the last iteration.
						if it == spec.Iters-1 {
							if _, err := th.FetchAdd(redAddr, int64(i+1)); err != nil {
								panic(fmt.Errorf("ep reduce: %w", err))
							}
						}
					case KernelMG:
						// Halo exchange with ring neighbours: write my halo
						// page, then read both neighbours' after the
						// mid-iteration barrier.
						if err := th.Store(exch(i, 0), int64(it)); err != nil {
							panic(fmt.Errorf("mg halo write: %w", err))
						}
						if err := bar.Wait(th); err != nil {
							panic(fmt.Errorf("mg mid barrier: %w", err))
						}
						for _, nb := range []int{(i + 1) % T, (i + T - 1) % T} {
							if v, err := th.Load(exch(nb, 0)); err != nil || v != int64(it) {
								panic(fmt.Sprintf("mg halo read = %d, %v (want %d)", v, err, it))
							}
						}
					case KernelIS:
						// Scatter into this thread's own bucket pages.
						for s := 0; s < T; s++ {
							if err := th.Store(exch(i, s), int64(it)); err != nil {
								panic(fmt.Errorf("is scatter: %w", err))
							}
						}
					case KernelCG:
						if _, err := th.FetchAdd(redAddr, int64(i+1)); err != nil {
							panic(fmt.Errorf("cg reduce: %w", err))
						}
					case KernelFT:
						// All-to-all: write my row, then read my column
						// (one page written by each peer).
						for s := 0; s < T; s++ {
							if err := th.Store(exch(i, s), int64(it)); err != nil {
								panic(fmt.Errorf("ft write: %w", err))
							}
						}
						if err := bar.Wait(th); err != nil {
							panic(fmt.Errorf("ft mid barrier: %w", err))
						}
						for w := 0; w < T; w++ {
							if v, err := th.Load(exch(w, i)); err != nil || v != int64(it) {
								panic(fmt.Sprintf("ft read slot %d = %d, %v (want %d)", w, v, err, it))
							}
						}
					}
					if spec.Kernel != KernelEP {
						// EP is embarrassingly parallel: no per-iteration
						// synchronisation, that's the point.
						if err := bar.Wait(th); err != nil {
							panic(fmt.Errorf("npb barrier: %w", err))
						}
					}
				}
			}); err != nil {
				return 0, err
			}
		}
		pr.Wait(p)

		// Verify the reduction totals before teardown.
		if spec.Kernel == KernelCG || spec.Kernel == KernelEP {
			check := sim.NewWaitGroup()
			check.Add(1)
			want := int64(spec.Iters) * int64(T*(T+1)/2)
			if spec.Kernel == KernelEP {
				want = int64(T * (T + 1) / 2)
			}
			if err := pr.Spawn(p, 0, func(th osi.Thread) {
				defer check.Done()
				if v, err := th.Load(redAddr); err != nil || v != want {
					panic(fmt.Sprintf("%s reduction = %d, %v; want %d", spec.Kernel, v, err, want))
				}
			}); err != nil {
				return 0, err
			}
			pr.Wait(p)
		}
		if err := pr.Close(p); err != nil {
			return 0, err
		}
		return uint64(spec.Iters * T), nil
	})
}

// MigrationBenefitSpec drives F8: a consumer thread on kernel 0 processes a
// data set resident on kernel 1. Migrate=true moves the thread to the data
// before processing (the paper's use case for thread migration); false
// processes it across kernels, pulling pages over.
type MigrationBenefitSpec struct {
	Pages   int
	Rounds  int
	Migrate bool
	// Prefetch batches the data over in one round trip instead of
	// migrating or demand-pulling (requires an OS exposing Prefetch).
	Prefetch bool
}

// prefetcher is implemented by the replicated kernel's threads.
type prefetcher interface {
	Prefetch(addr mem.Addr, pages int) (int, error)
}

// MigrationBenefit runs the F8 scenario; it requires an OS with >= 2
// kernels and migration support (the replicated kernel).
func MigrationBenefit(o osi.OS, spec MigrationBenefitSpec) (Result, error) {
	if o.Kernels() < 2 {
		return Result{}, fmt.Errorf("workload: migration benefit needs >= 2 kernels, have %d", o.Kernels())
	}
	name := "migrate-stay"
	if spec.Migrate {
		name = "migrate-follow"
	} else if spec.Prefetch {
		name = "migrate-prefetch"
	}
	return measure(o, name, 1, func(p *sim.Proc, _ *Result) (uint64, error) {
		pr, err := o.StartProcess(p)
		if err != nil {
			return 0, err
		}
		var base mem.Addr
		ready := sim.NewWaitGroup()
		ready.Add(1)
		// Producer on kernel 1 materialises the data set there.
		if err := pr.Spawn(p, 1, func(th osi.Thread) {
			a, err := th.Mmap(uint64(spec.Pages)*hw.PageSize, mem.ProtRead|mem.ProtWrite)
			if err != nil {
				panic(fmt.Errorf("producer mmap: %w", err))
			}
			for pg := 0; pg < spec.Pages; pg++ {
				if err := th.Store(a+mem.Addr(pg*hw.PageSize), int64(pg)); err != nil {
					panic(fmt.Errorf("producer store: %w", err))
				}
			}
			base = a
			ready.Done()
		}); err != nil {
			return 0, err
		}
		// Consumer starts on kernel 0 and sums the data set.
		if err := pr.Spawn(p, 0, func(th osi.Thread) {
			ready.Wait(th.Proc())
			if spec.Migrate {
				if err := th.Migrate(1); err != nil {
					panic(fmt.Errorf("consumer migrate: %w", err))
				}
			}
			if spec.Prefetch {
				pf, ok := th.(prefetcher)
				if !ok {
					panic("consumer prefetch: OS does not support Prefetch")
				}
				if _, err := pf.Prefetch(base, spec.Pages); err != nil {
					panic(fmt.Errorf("consumer prefetch: %w", err))
				}
			}
			sum := int64(0)
			for r := 0; r < spec.Rounds; r++ {
				for pg := 0; pg < spec.Pages; pg++ {
					v, err := th.Load(base + mem.Addr(pg*hw.PageSize))
					if err != nil {
						panic(fmt.Errorf("consumer load: %w", err))
					}
					sum += v
				}
			}
			want := int64(spec.Rounds) * int64(spec.Pages) * int64(spec.Pages-1) / 2
			if sum != want {
				panic(fmt.Sprintf("consumer sum = %d, want %d", sum, want))
			}
		}); err != nil {
			return 0, err
		}
		pr.Wait(p)
		if err := pr.Close(p); err != nil {
			return 0, err
		}
		return uint64(spec.Pages * spec.Rounds), nil
	})
}
