package osi_test

import (
	"testing"
	"time"

	"repro/internal/hw"
	"repro/internal/mem"
	"repro/internal/osi"
	"repro/internal/sim"
	"repro/internal/vm"
	"repro/internal/workload"
)

// TestConformancePlantsFailTheDigest: a program whose threads see the same
// thing on both OSes, but which leaves one word, one protection or the
// break different on one OS only, passes every result comparison and must
// fail the digest — on whichever OS the plant lands.
func TestConformancePlantsFailTheDigest(t *testing.T) {
	plants := []struct {
		name  string
		plant func(th osi.Thread, base mem.Addr) error
	}{
		{"a store of a different word", func(th osi.Thread, base mem.Addr) error { return th.Store(base, 8) }},
		{"an mprotect to a different prot", func(th osi.Thread, base mem.Addr) error {
			return th.Mprotect(base+hw.PageSize, hw.PageSize, mem.ProtRead)
		}},
		{"an sbrk moving the break", func(th osi.Thread, _ mem.Addr) error {
			_, err := th.Sbrk(hw.PageSize)
			return err
		}},
	}
	for _, pl := range plants {
		for _, on := range []string{"popcorn", "smp"} {
			outs := runEach(t, hw.DefaultCostModel(), func(o osi.OS, p *sim.Proc, pr osi.Process, _ *struct{}) error {
				return pr.Spawn(p, 0, func(th osi.Thread) {
					base, err := th.Mmap(2*hw.PageSize, mem.ProtRead|mem.ProtWrite)
					if err != nil {
						panic(err)
					}
					if err := th.Store(base, 7); err != nil {
						panic(err)
					}
					if o.Name() == on {
						if err := pl.plant(th, base); err != nil {
							panic(err)
						}
					}
				})
			})
			if err := agree(outs); err == nil {
				t.Errorf("%s on %s only: conform passed, want the digests to differ", pl.name, on)
			}
		}
	}
}

// TestConformanceCloseTwice: a second Close of a process does nothing on
// either OS, so it leaves the digest as the first Close left it.
func TestConformanceCloseTwice(t *testing.T) {
	for name, o := range bootAll(t) {
		var first, second uint64
		err := workload.Drive(o, "program", func(p *sim.Proc) error {
			pr, err := o.StartProcess(p)
			if err != nil {
				return err
			}
			if err := pr.Spawn(p, 0, func(th osi.Thread) {
				if _, err := th.Mmap(hw.PageSize, mem.ProtRead); err != nil {
					panic(err)
				}
			}); err != nil {
				return err
			}
			pr.Wait(p)
			err = pr.Close(p)
			first = o.Digest()
			if err == nil {
				err = pr.Close(p)
			}
			second = o.Digest()
			return err
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if second != first {
			t.Errorf("%s: a second Close moved the digest from %#x to %#x", name, first, second)
		}
	}
}

// TestConformanceWorkloads runs each workload that runs unmodified on both
// OSes and requires the same operation count and the same digest: every
// process the workload closed left the same layout and the same words.
// MigrationBenefit is not a row: it needs two kernels, and SMP has one.
func TestConformanceWorkloads(t *testing.T) {
	compute := func(k string) func(osi.OS) (workload.Result, error) {
		return func(o osi.OS) (workload.Result, error) {
			return workload.ComputeKernel(o, workload.ComputeKernelSpec{Kernel: k, Threads: 4, Iters: 2, Work: 20 * time.Microsecond})
		}
	}
	chain := func(shared bool) func(osi.OS) (workload.Result, error) {
		return func(o osi.OS) (workload.Result, error) {
			return workload.FutexChain(o, workload.FutexChainSpec{Threads: 8, Iters: 5, CS: time.Microsecond, Shared: shared})
		}
	}
	storm := func(shared bool) func(osi.OS) (workload.Result, error) {
		return func(o osi.OS) (workload.Result, error) {
			return workload.MmapStorm(o, workload.MmapStormSpec{Threads: 8, Iters: 4, Pages: 4, Shared: shared})
		}
	}
	rows := []struct {
		name string
		run  func(osi.OS) (workload.Result, error)
		ops  uint64
		// procs processes each leave pages mapped read-write at the map
		// base. words says whether a non-zero word is left too: a row
		// without one folds layouts only, is vacuous for page contents
		// and does not count as their coverage.
		procs int
		pages uint64
		words bool
		// unlike, if set, says why the final memory may differ between the
		// OSes — a race, or a workload that shapes itself on the kernel
		// count; the row then compares operation counts alone.
		unlike string
	}{
		{"threadbomb", func(o osi.OS) (workload.Result, error) {
			return workload.ThreadBomb(o, workload.ThreadBombSpec{Spawners: 4, Children: 8})
		}, 32, 4, 0, false, ""},
		// Every mapping is unmapped again.
		{"mmapstorm", storm(false), 32, 8, 0, false, ""},
		{"mmapstorm-shared", storm(true), 32, 1, 0, false, ""},
		{"faultsweep", func(o osi.OS) (workload.Result, error) {
			return workload.FaultSweep(o, workload.FaultSweepSpec{Threads: 8, Pages: 32})
		}, 256, 8, 32, true, ""},
		// The lock word ends unlocked, 0: only its mapping is folded.
		{"futexchain", chain(false), 40, 0, 1, false,
			"one process and lock per kernel: four processes on popcorn, one on smp"},
		{"futexchain-shared", chain(true), 40, 1, 1, false, ""},
		// A barrier's two words, then a page per thread pair.
		{"npb-is", compute(workload.KernelIS), 8, 1, 19, true, ""},
		{"npb-cg", compute(workload.KernelCG), 8, 1, 19, true, ""},
		{"npb-ft", compute(workload.KernelFT), 8, 1, 19, true, ""},
		{"npb-ep", compute(workload.KernelEP), 8, 1, 19, true, ""},
		{"npb-mg", compute(workload.KernelMG), 8, 1, 19, true, ""},
		// A lock page and two key pages per shard.
		{"kvstore", func(o osi.OS) (workload.Result, error) {
			return workload.KVStore(o, workload.KVStoreSpec{
				Shards: 4, Clients: 6, OpsPerClient: 20,
				PutRatioPct: 50, KeysPerShard: 2, Think: time.Microsecond, Seed: 7,
			})
		}, 120, 1, 12, true, ""},
	}
	covered := 0
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			digests := make(map[string]uint64)
			for name, o := range bootAll(t) {
				res, err := row.run(o)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if res.Ops != row.ops || res.Elapsed <= 0 {
					t.Errorf("%s: ops = %d in %v, want %d in a positive time", name, res.Ops, res.Elapsed, row.ops)
				}
				digests[name] = o.Digest()
			}
			if row.unlike != "" {
				t.Logf("digest not compared: %s", row.unlike)
				return
			}
			if digests["popcorn"] != digests["smp"] {
				t.Errorf("digests differ: popcorn %#x, smp %#x", digests["popcorn"], digests["smp"])
			}
			l := vm.NewLayout()
			if row.pages > 0 {
				if _, _, _, err := l.Resolve(vm.OpMap, 0, row.pages*hw.PageSize, mem.ProtRead|mem.ProtWrite); err != nil {
					t.Fatal(err)
				}
			}
			if words := digests["smp"] != uint64(row.procs)*uint64(l.Digest()); words != row.words {
				t.Errorf("covers a non-zero word = %v, want %v", words, row.words)
			}
		})
		if row.words && row.unlike == "" {
			covered++
		}
	}
	t.Logf("%d of %d rows compare a digest that covers a non-zero word", covered, len(rows))
}
