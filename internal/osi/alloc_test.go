package osi_test

import (
	"testing"
	"time"

	"repro/internal/hw"
	"repro/internal/mem"
	"repro/internal/osi"
	"repro/internal/sim"
)

// TestPrivateMapLoopSteadyStateAllocs pins what F4's private page costs the
// host once a map → touch → unmap loop is warm: the replicated kernel
// allocates the page's directory entry (one object, its mutex held by value)
// and nothing else; the SMP baseline allocates nothing. The layout splices its
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
		const runs = 50
		allocs := testing.AllocsPerRun(runs, func() {
			if err := e.RunFor(window); err != nil {
				t.Fatalf("%s: run: %v", name, err)
			}
		})
		perWindow := float64(touched-before) / (runs + 1) // AllocsPerRun adds a warm-up call
		if perWindow < pages {
			t.Fatalf("%s: %.1f pages touched per window, want at least one iteration", name, perWindow)
		}
		if n := o.Metrics().Counter("msg.sent").Value(); n != sent {
			t.Fatalf("%s: the private loop sent %d messages", name, n-sent)
		}
		perPage := allocs / perWindow
		t.Logf("%s: %.3f allocs per first-touched page (%.0f pages per window)", name, perPage, perWindow)
		want := 0.0
		if name == "popcorn" {
			want = 1 // the page's directory entry
		}
		// A tenth of an allocation per page of slack for amortised map growth.
		if perPage > want+0.1 {
			t.Errorf("%s: private map/touch/unmap allocates %.2f per first-touched page, want <= %.0f", name, perPage, want)
		}
	}
}
