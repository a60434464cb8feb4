package vm

import (
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/hw"
	"repro/internal/mem"
	"repro/internal/sim"
)

// radixModel checks random sequences of Set, Clear, ClearRange, DeleteRange
// and the ordered walk on one instance of the generic radix against a plain
// map, its specification, with the radix's shape check after every step.
// Pages fall in two distant regions, each spanning several leaves from
// mid-leaf, and now and then a range spans both. entry makes the entry each
// Set installs.
func radixModel[E comparable](t *testing.T, entry func(rng *rand.Rand) E) {
	regions := [2]mem.VPN{1<<28 - 5, 1<<32 + 7}
	const span = 72
	for seed := int64(1); seed <= 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var r mem.Radix[E]
		model := make(map[mem.VPN]E)
		page := func() mem.VPN { return regions[rng.Intn(2)] + mem.VPN(rng.Intn(span)) }
		// ordered returns the model's entries in [lo, hi), in page order.
		ordered := func(lo, hi mem.VPN) (vpns []mem.VPN, es []E) {
			for _, v := range slices.Sorted(maps.Keys(model)) {
				if lo <= v && v < hi {
					vpns, es = append(vpns, v), append(es, model[v])
				}
			}
			return vpns, es
		}
		for step := 0; step < 300; step++ {
			where := fmt.Sprintf("seed %d step %d", seed, step)
			v := page()
			lo, hi := v, v+mem.VPN(rng.Intn(40))
			if rng.Intn(8) == 0 && lo < regions[1] {
				hi = regions[1] + mem.VPN(rng.Intn(span))
			}
			switch op := rng.Intn(20); {
			case op < 10:
				e := entry(rng)
				r.Set(v, e)
				model[v] = e
			case op < 12:
				_, want := model[v]
				if got := r.Clear(v); got != want {
					t.Fatalf("%s: Clear(%d) = %v, want %v", where, v, got, want)
				}
				delete(model, v)
			case op < 15:
				vpns, want := ordered(lo, hi)
				if got := r.ClearRange(nil, lo, hi); !slices.Equal(got, want) {
					t.Fatalf("%s: ClearRange(%d, %d) = %v, want %v", where, lo, hi, got, want)
				}
				for _, u := range vpns {
					delete(model, u)
				}
			case op < 17:
				vpns, _ := ordered(lo, hi)
				r.DeleteRange(lo, hi)
				for _, u := range vpns {
					delete(model, u)
				}
			default:
				wantV, want := ordered(0, ^mem.VPN(0))
				var gotV []mem.VPN
				var got []E
				for u, e := range r.All {
					gotV, got = append(gotV, u), append(got, e)
				}
				if !slices.Equal(gotV, wantV) || !slices.Equal(got, want) {
					t.Fatalf("%s: All walked %v %v, want %v %v", where, gotV, got, wantV, want)
				}
			}
			if err := r.Check(); err != nil {
				t.Fatalf("%s: %v", where, err)
			}
			for _, base := range regions {
				for u := base - 16; u < base+span+16; u++ {
					got, ok := r.Lookup(u)
					want, wantOK := model[u]
					if ok != wantOK || got != want {
						t.Fatalf("%s: Lookup(%d) = %v, %v; want %v, %v", where, u, got, ok, want, wantOK)
					}
				}
			}
		}
	}
}

// TestRadixModel runs the model over the radix's page-table instance and
// its directory instance: the same code holds a value entry and a pointer.
func TestRadixModel(t *testing.T) {
	t.Run("pte", func(t *testing.T) {
		radixModel(t, func(rng *rand.Rand) mem.PTE {
			e := mem.PTE{Frame: mem.FrameID(rng.Intn(1000)), Word: rng.Int63n(100) - 50, Prot: mem.Prot(rng.Intn(8)), HomeNode: uint8(rng.Intn(4))}
			e.SetWriter(rng.Intn(64))
			return e
		})
	})
	t.Run("dirEntry", func(t *testing.T) {
		radixModel(t, func(rng *rand.Rand) *dirEntry {
			return &dirEntry{dirState: dirState{value: rng.Int63n(100), state: pageState(rng.Intn(3))}}
		})
	})
}

// TestRadixSnapshotThenLock pins the walk PeerDied makes: it snapshots the
// directory in page order, then locks the entries one by one, blocking on
// the ones a transaction holds. Meanwhile faults add entries (into the
// snapshotted leaves and new ones) and an unmap drops some the snapshot
// holds. The sweep locks exactly the snapshotted entries, in page order —
// a dropped one is its own dead entry, which nothing else reaches — and the
// radix ends as the writes left it.
func TestRadixSnapshotThenLock(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	var dir mem.Radix[*dirEntry]
	model := make(map[mem.VPN]*dirEntry)
	add := func(v mem.VPN) *dirEntry {
		de := &dirEntry{}
		de.mu.SetLabel(&dirEntryLabel)
		dir.Set(v, de)
		model[v] = de
		return de
	}
	var want []*dirEntry
	for _, v := range []mem.VPN{3, 5, 17, 40, 41, 100} {
		want = append(want, add(v))
	}
	held := []*dirEntry{model[5], model[41]}
	var swept []*dirEntry
	e.Spawn("transaction", func(p *sim.Proc) {
		for _, de := range held {
			de.mu.Lock(p)
		}
		p.Sleep(10 * time.Microsecond)
		for _, de := range held {
			de.mu.Unlock(p)
		}
	})
	e.Spawn("sweep", func(p *sim.Proc) {
		p.Sleep(time.Microsecond)
		var snap []*dirEntry
		for _, de := range dir.All {
			snap = append(snap, de)
		}
		for _, de := range snap {
			de.mu.Lock(p)
			swept = append(swept, de)
			p.Sleep(time.Microsecond)
			de.mu.Unlock(p)
		}
	})
	e.Spawn("faults", func(p *sim.Proc) {
		for _, v := range []mem.VPN{2, 4, 18, 64, 1 << 20} {
			p.Sleep(2 * time.Microsecond)
			add(v)
		}
		// An unmap of [17, 41): two snapshotted entries and one added since.
		dir.DeleteRange(17, 41)
		for v := mem.VPN(17); v < 41; v++ {
			delete(model, v)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !slices.Equal(swept, want) {
		t.Errorf("sweep locked %d entries %v, want the %d snapshotted ones in page order", len(swept), swept, len(want))
	}
	if err := dir.Check(); err != nil {
		t.Fatal(err)
	}
	var got []mem.VPN
	for v, de := range dir.All {
		if model[v] != de {
			t.Errorf("page %d holds %p, want %p", v, de, model[v])
		}
		got = append(got, v)
	}
	if wantV := slices.Sorted(maps.Keys(model)); !slices.Equal(got, wantV) {
		t.Errorf("radix holds pages %v, want %v", got, wantV)
	}
}

// TestDeadlockReportNamesDirEntry: a process stuck on a page's directory
// entry is reported against vm.dir-entry, the label every entry points at.
func TestDeadlockReportNamesDirEntry(t *testing.T) {
	ev := newEnv(t, 1, 64)
	sps := ev.group(t, 1)
	var addr mem.Addr
	ev.run(t, func(p *sim.Proc) {
		var err error
		if addr, err = sps[0].Map(p, hw.PageSize, mem.ProtRead|mem.ProtWrite); err != nil {
			t.Errorf("Map: %v", err)
		} else if err := sps[0].Store(p, 0, addr, 1); err != nil {
			t.Errorf("Store: %v", err)
		}
	})
	de, ok := sps[0].dir.Lookup(mem.PageOf(addr))
	if !ok {
		t.Fatal("the touched page has no directory entry")
	}
	ev.e.Spawn("holder", func(p *sim.Proc) {
		de.mu.Lock(p)
		p.Suspend()
	})
	ev.e.Spawn("stuck", func(p *sim.Proc) {
		p.Sleep(time.Microsecond)
		de.mu.Lock(p)
	})
	var dl *sim.DeadlockError
	if err := ev.e.Run(); !errors.As(err, &dl) {
		t.Fatalf("Run = %v, want a deadlock", err)
	}
	for _, w := range dl.Waits {
		if w.Name == "stuck" && w.Resource == "vm.dir-entry" && w.HolderName == "holder" {
			return
		}
	}
	t.Errorf("report does not name vm.dir-entry held by holder: %+v", dl.Waits)
}

// BenchmarkDirLookup is BenchmarkPageTableLookup on the radix's directory
// instance: a directory of 4, 64 and 4 096 entries read in a scattered
// order (a full-period step through the pages; n is a power of two).
func BenchmarkDirLookup(b *testing.B) {
	for _, n := range []int{4, 64, 4096} {
		b.Run(fmt.Sprintf("pages=%d", n), func(b *testing.B) {
			var dir mem.Radix[*dirEntry]
			const base = mem.VPN(1 << 32)
			for i := 0; i < n; i++ {
				dir.Set(base+mem.VPN(i), &dirEntry{dirState: dirState{value: int64(i)}})
			}
			var sum int64
			i := 0
			b.ResetTimer()
			for range b.N {
				de, _ := dir.Lookup(base + mem.VPN(i))
				sum += de.value
				i = (5*i + 1) & (n - 1)
			}
			if sum < 0 {
				b.Fatal("negative value sum")
			}
		})
	}
}
