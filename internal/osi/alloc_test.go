package osi_test

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/hw"
	"repro/internal/mem"
	"repro/internal/osi"
	"repro/internal/sim"
)

// TestPrivateMapLoopSteadyStateAllocs pins what F4's private page costs the
// host once a map → touch → unmap loop is warm, in allocations and in bytes:
// the replicated kernel allocates the page's directory entry (one 64-byte
// object, its mutex held by value) and nothing else; the SMP baseline
// allocates nothing. The layout splices its
// areas in place, page-table clears land in the caller's stack buffer, and the
// maps the loop churns keep their buckets, so no other allocation recurs.
func TestPrivateMapLoopSteadyStateAllocs(t *testing.T) {
	const pages = 4
	for name, o := range bootAll(t) {
		e := o.Engine()
		touched := 0
		e.Spawn("program", func(p *sim.Proc) {
			pr, err := o.StartProcess(p)
			if err != nil {
				panic(err)
			}
			// The first process's origin is kernel 0: every page is private
			// to it, and the loop sends no message.
			if err := pr.Spawn(p, 0, func(th osi.Thread) {
				for i := int64(0); ; i++ {
					addr, err := th.Mmap(pages*hw.PageSize, mem.ProtRead|mem.ProtWrite)
					if err != nil {
						panic(err)
					}
					for pg := mem.Addr(0); pg < pages; pg++ {
						if err := th.Store(addr+pg*hw.PageSize, i); err != nil {
							panic(err)
						}
					}
					if err := th.Munmap(addr, pages*hw.PageSize); err != nil {
						panic(err)
					}
					touched += pages
				}
			}); err != nil {
				panic(err)
			}
		})
		const window = 200 * time.Microsecond
		if err := e.RunFor(100 * window); err != nil {
			t.Fatalf("%s: warm-up: %v", name, err)
		}
		sent := o.Metrics().Counter("msg.sent").Value()
		before := touched
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		bytesBefore := ms.TotalAlloc
		const runs = 50
		allocs := testing.AllocsPerRun(runs, func() {
			if err := e.RunFor(window); err != nil {
				t.Fatalf("%s: run: %v", name, err)
			}
		})
		runtime.ReadMemStats(&ms)
		bytesPerPage := float64(ms.TotalAlloc-bytesBefore) / float64(touched-before)
		perWindow := float64(touched-before) / (runs + 1) // AllocsPerRun adds a warm-up call
		if perWindow < pages {
			t.Fatalf("%s: %.1f pages touched per window, want at least one iteration", name, perWindow)
		}
		if n := o.Metrics().Counter("msg.sent").Value(); n != sent {
			t.Fatalf("%s: the private loop sent %d messages", name, n-sent)
		}
		perPage := allocs / perWindow
		t.Logf("%s: %.3f allocs and %.1f B per first-touched page (%.0f pages per window)", name, perPage, bytesPerPage, perWindow)
		want, wantBytes := 0.0, 0.0
		if name == "popcorn" {
			// The page's directory entry, in Go's 64-byte size class (96
			// while its mutex held a string header and its version and
			// owner took a word each, 176 while its mutex carried
			// contention counters and it kept a revocation buffer).
			want, wantBytes = 1, 64
		}
		// A tenth of an allocation, and two bytes, per page of slack for
		// amortised map growth.
		if perPage > want+0.1 {
			t.Errorf("%s: private map/touch/unmap allocates %.2f per first-touched page, want <= %.0f", name, perPage, want)
		}
		if bytesPerPage > wantBytes+2 {
			t.Errorf("%s: private map/touch/unmap allocates %.1f B per first-touched page, want <= %.0f", name, bytesPerPage, wantBytes)
		}
	}
}

// TestBootAllocs pins what a boot and its Close cost the host, on the 64-core
// machine popbench boots, popcorn split into 8 kernels. Every benchtable cell
// and every popbench rep boots fresh machines, so a boot's allocations are
// paid per cell. What is left is simulated state: engines and their first
// processes, fabric tables, schedulers, each service's maps, mutexes that
// carry a label, and the frame zones. smp's futex hash table is an array of
// mutexes over one queue map, and msg names a handler's or a multicast
// worker's process from a per-Type table, so neither formats nor allocates
// per bucket, kernel or peer.
func TestBootAllocs(t *testing.T) {
	budgets := map[string]float64{
		// measured 409 (415-420 under the race detector); 625 while msg
		// formatted a process name per kernel and type and per kernel pair
		// and each scheduler's free list grew by appends
		"popcorn": 430,
		// measured 26; 799 while each of the 256 futex buckets was a
		// struct, a mutex and a map
		"smp": 26,
	}
	for name, boot := range boots {
		allocs := testing.AllocsPerRun(5, func() {
			o, err := boot(hw.Topology{Cores: 64, NUMANodes: 2}, 8, hw.DefaultCostModel())
			if err != nil {
				t.Fatalf("Boot %s: %v", name, err)
			}
			o.Close()
		})
		t.Logf("%s: %.0f allocations per Boot+Close", name, allocs)
		if allocs > budgets[name] {
			t.Errorf("%s: Boot+Close allocates %.0f, want <= %.0f", name, allocs, budgets[name])
		}
	}
}
