package vm

import (
	"slices"
	"testing"

	"repro/internal/hw"
	"repro/internal/mem"
	"repro/internal/sanitize"
	"repro/internal/sim"
)

// FuzzVMASet drives the VMA set with an op stream decoded from fuzz input
// and checks the structural invariants after every step, and every remove's
// returned pieces against the page oracle. Each op is three bytes: op and
// protection (byte%3 and byte/3%3), first page, length-1. Run with
// `go test -fuzz=FuzzVMASet ./internal/vm` for continuous fuzzing; the
// seed corpus below runs as ordinary unit tests.
func FuzzVMASet(f *testing.F) {
	f.Add([]byte{0, 10, 4, 1, 12, 2, 2, 8, 8})
	f.Add([]byte{0, 0, 1, 0, 0, 1, 1, 0, 1})
	f.Add([]byte{2, 5, 3, 0, 5, 3, 1, 5, 3})
	// A remove that splits one area in the middle: [10,18) loses [12,14).
	f.Add([]byte{0, 10, 7, 1, 12, 1})
	// A remove across three areas of three protections and the holes
	// between them, trimming the first and the last: [3,11) out of [2,4) r,
	// [5,7) rw and [8,12) none.
	f.Add([]byte{0, 2, 1, 3, 5, 1, 6, 8, 3, 1, 3, 7})
	// A remove over a protect's split: [20,24) r with [22,23) made rw, then
	// [21,24) out, three pieces.
	f.Add([]byte{0, 20, 3, 5, 22, 0, 1, 21, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		s := &vmaSet{}
		oracle := make(map[mem.VPN]mem.Prot)
		prots := []mem.Prot{mem.ProtRead, mem.ProtRead | mem.ProtWrite, 0}
		for i := 0; i+2 < len(data); i += 3 {
			op := data[i] % 3
			lo := mem.VPN(data[i+1] % 64)
			hi := lo + mem.VPN(data[i+2]%8) + 1
			prot := prots[int(data[i]/3)%len(prots)]
			switch op {
			case 0:
				if !s.overlaps(lo, hi) {
					if err := s.insert(VMA{Lo: lo, Hi: hi, Prot: prot}); err != nil {
						t.Fatalf("insert on free range failed: %v", err)
					}
					for v := lo; v < hi; v++ {
						oracle[v] = prot
					}
				}
			case 1:
				// The pieces are the runs of mapped pages of one protection,
				// ascending: adjacent areas never share a protection.
				var want []VMA
				for v := lo; v < hi; v++ {
					prot, ok := oracle[v]
					if !ok {
						continue
					}
					if n := len(want); n > 0 && want[n-1].Hi == v && want[n-1].Prot == prot {
						want[n-1].Hi++
					} else {
						want = append(want, VMA{Lo: v, Hi: v + 1, Prot: prot})
					}
					delete(oracle, v)
				}
				if got := s.remove(lo, hi); !slices.Equal(got, want) {
					t.Fatalf("op %d: remove [%d,%d) returned %v, want %v", i/3, lo, hi, got, want)
				}
			case 2:
				s.protect(lo, hi, prot)
				for v := lo; v < hi; v++ {
					if _, ok := oracle[v]; ok {
						oracle[v] = prot
					}
				}
			}
			if err := s.invariantErr(); err != nil {
				t.Fatalf("invariant after op %d: %v (%v)", i/3, err, s)
			}
		}
		// Final agreement with the page oracle.
		for v := mem.VPN(0); v < 80; v++ {
			area, mapped := s.find(v)
			wantProt, wantMapped := oracle[v]
			if mapped != wantMapped || (mapped && area.Prot != wantProt) {
				t.Fatalf("page %d: set=(%v,%v) oracle=(%v,%v)", v, area.Prot, mapped, wantProt, wantMapped)
			}
		}
	})
}

// FuzzCoherenceSanitized drives the distributed page protocol with the
// coherence sanitizer attached: two kernels hammer a small window of shared
// pages with loads, stores, CAS and fetch-add decoded from the fuzz input,
// under a tie-shuffled (seeded) event schedule. With an intact directory the
// sanitizer must stay silent — any coherence violation is a real protocol
// bug, not a property of the input. With the skip-revoke fault injected the
// run must survive (no deadlock, no unexpected error) and every reported
// violation must be well-formed.
//
// The seed corpus includes the shrunk repro popcornmc finds for the
// injected bug: store at the origin, replicate to k1, upgrade at the origin
// with the invalidation dropped.
func FuzzCoherenceSanitized(f *testing.F) {
	// Minimal skip-revoke repro (seed 1): store k0, load k1, store k0.
	f.Add(uint8(1), true, []byte{0x01, 7, 0x04, 0, 0x01, 9})
	// Same schedule, intact directory: must be clean.
	f.Add(uint8(1), false, []byte{0x01, 7, 0x04, 0, 0x01, 9})
	// Mixed RMW traffic across two pages and both kernels.
	f.Add(uint8(42), false, []byte{0x02, 1, 0x06, 1, 0x0b, 3, 0x0f, 5, 0x08, 0, 0x01, 2})
	f.Fuzz(func(t *testing.T, seed uint8, inject bool, data []byte) {
		if len(data) > 128 {
			data = data[:128]
		}
		ev := newEnv(t, 2, 64, sim.WithSeed(int64(seed)+1), sim.WithTieShuffle())
		ck := attachSanitizer(ev, sanitize.Config{})
		if inject {
			ev.svcs[0].InjectSkipRevoke(1)
		}
		sps := ev.group(t, 1)

		const pages = 8
		// Split the op stream per kernel so the two workers run their halves
		// concurrently: cross-kernel protocol traffic under a shuffled
		// schedule is where coherence bugs live.
		var streams [2][]byte
		for i := 0; i+1 < len(data); i += 2 {
			k := (data[i] >> 2) & 1
			streams[k] = append(streams[k], data[i], data[i+1])
		}
		ev.run(t, func(p *sim.Proc) {
			addr, err := sps[0].Map(p, pages*hw.PageSize, mem.ProtRead|mem.ProtWrite)
			if err != nil {
				t.Errorf("Map: %v", err)
				return
			}
			for k := 0; k < 2; k++ {
				k := k
				ops := streams[k]
				core := k * 2 // env kernels sit on cores 0 and 2
				sp := sps[k]
				ev.e.Spawn("fuzz-worker", func(p *sim.Proc) {
					for i := 0; i+1 < len(ops); i += 2 {
						a := addr + mem.Addr((ops[i]>>3)%pages)*hw.PageSize
						val := int64(ops[i+1])
						var err error
						switch ops[i] & 3 {
						case 0:
							_, err = sp.Load(p, core, a)
						case 1:
							err = sp.Store(p, core, a, val)
						case 2:
							_, err = sp.CompareAndSwap(p, core, a, val%4, val)
						default:
							_, err = sp.FetchAdd(p, core, a, val)
						}
						if err != nil {
							t.Errorf("k%d op %d: %v", k, i/2, err)
							return
						}
					}
				})
			}
		})

		vs := ck.Violations()
		if !inject && len(vs) != 0 {
			t.Fatalf("coherence violations on an intact directory:\n%s", ck.Report())
		}
		for _, v := range vs {
			if v.Kind == "" || v.GID != 1 || v.Detail == "" {
				t.Fatalf("malformed violation %+v", v)
			}
		}
	})
}
