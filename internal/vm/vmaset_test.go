package vm

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/mem"
)

func mustInsert(t *testing.T, s *vmaSet, v VMA) {
	t.Helper()
	if err := s.insert(v); err != nil {
		t.Fatalf("insert(%v): %v", v, err)
	}
}

func TestVMASetInsertFind(t *testing.T) {
	s := &vmaSet{}
	mustInsert(t, s, VMA{Lo: 10, Hi: 20, Prot: mem.ProtRead})
	mustInsert(t, s, VMA{Lo: 30, Hi: 40, Prot: mem.ProtRead | mem.ProtWrite})
	if _, ok := s.find(9); ok {
		t.Fatal("found VMA before first area")
	}
	v, ok := s.find(10)
	if !ok || v.Lo != 10 {
		t.Fatalf("find(10) = %v, %v", v, ok)
	}
	if _, ok := s.find(20); ok {
		t.Fatal("Hi bound should be exclusive")
	}
	v, ok = s.find(35)
	if !ok || !v.Prot.Writable() {
		t.Fatalf("find(35) = %v, %v", v, ok)
	}
}

func TestVMASetInsertRejectsOverlap(t *testing.T) {
	s := &vmaSet{}
	mustInsert(t, s, VMA{Lo: 10, Hi: 20, Prot: mem.ProtRead})
	for _, v := range []VMA{
		{Lo: 15, Hi: 25, Prot: mem.ProtRead},
		{Lo: 5, Hi: 11, Prot: mem.ProtRead},
		{Lo: 10, Hi: 20, Prot: mem.ProtRead},
		{Lo: 12, Hi: 13, Prot: mem.ProtRead},
	} {
		if err := s.insert(v); err == nil {
			t.Fatalf("insert(%v) accepted overlap", v)
		}
	}
	if err := s.insert(VMA{Lo: 5, Hi: 5}); err == nil {
		t.Fatal("empty VMA accepted")
	}
}

func TestVMASetInsertCoalescesNeighbours(t *testing.T) {
	s := &vmaSet{}
	mustInsert(t, s, VMA{Lo: 10, Hi: 20, Prot: mem.ProtRead})
	mustInsert(t, s, VMA{Lo: 30, Hi: 40, Prot: mem.ProtRead})
	mustInsert(t, s, VMA{Lo: 20, Hi: 30, Prot: mem.ProtRead})
	if s.len() != 1 {
		t.Fatalf("areas = %v, want one coalesced area", s)
	}
	v, _ := s.find(25)
	if v.Lo != 10 || v.Hi != 40 {
		t.Fatalf("coalesced area = %v", v)
	}
	// Different protection must not coalesce.
	mustInsert(t, s, VMA{Lo: 40, Hi: 50, Prot: mem.ProtRead | mem.ProtWrite})
	if s.len() != 2 {
		t.Fatalf("areas = %v, want 2", s)
	}
}

func TestVMASetRemoveSplits(t *testing.T) {
	s := &vmaSet{}
	mustInsert(t, s, VMA{Lo: 10, Hi: 30, Prot: mem.ProtRead})
	removed := s.remove(15, 20)
	if len(removed) != 1 || removed[0].Lo != 15 || removed[0].Hi != 20 {
		t.Fatalf("removed = %v", removed)
	}
	if s.len() != 2 {
		t.Fatalf("areas = %v, want split into 2", s)
	}
	if _, ok := s.find(17); ok {
		t.Fatal("hole still mapped")
	}
	if _, ok := s.find(14); !ok {
		t.Fatal("left part lost")
	}
	if _, ok := s.find(20); !ok {
		t.Fatal("right part lost")
	}
}

func TestVMASetRemoveAcrossAreas(t *testing.T) {
	s := &vmaSet{}
	mustInsert(t, s, VMA{Lo: 0, Hi: 10, Prot: mem.ProtRead})
	mustInsert(t, s, VMA{Lo: 20, Hi: 30, Prot: mem.ProtRead | mem.ProtWrite})
	removed := s.remove(5, 25)
	if len(removed) != 2 {
		t.Fatalf("removed = %v, want 2 fragments", removed)
	}
	if removed[0].Hi != 10 || removed[1].Lo != 20 {
		t.Fatalf("removed fragments wrong: %v", removed)
	}
	if s.remove(100, 200) != nil {
		t.Fatal("removing a hole returned fragments")
	}
}

func TestVMASetProtectSplitsAndMerges(t *testing.T) {
	s := &vmaSet{}
	mustInsert(t, s, VMA{Lo: 0, Hi: 30, Prot: mem.ProtRead | mem.ProtWrite})
	changed := s.protect(10, 20, mem.ProtRead)
	if len(changed) != 1 || changed[0].Prot != (mem.ProtRead|mem.ProtWrite) {
		t.Fatalf("changed = %v", changed)
	}
	if s.len() != 3 {
		t.Fatalf("areas = %v, want 3 after split", s)
	}
	// Re-protecting back should merge to one again.
	s.protect(10, 20, mem.ProtRead|mem.ProtWrite)
	if s.len() != 1 {
		t.Fatalf("areas = %v, want merged back to 1", s)
	}
	// Protect with identical protection changes nothing.
	if got := s.protect(0, 30, mem.ProtRead|mem.ProtWrite); got != nil {
		t.Fatalf("no-op protect changed %v", got)
	}
}

func TestVMASetCovered(t *testing.T) {
	s := &vmaSet{}
	mustInsert(t, s, VMA{Lo: 0, Hi: 10, Prot: mem.ProtRead})
	mustInsert(t, s, VMA{Lo: 10, Hi: 20, Prot: mem.ProtRead | mem.ProtWrite})
	if !s.covered(0, 20) {
		t.Fatal("contiguous areas reported uncovered")
	}
	if s.covered(0, 21) {
		t.Fatal("range past the end reported covered")
	}
	s.remove(5, 6)
	if s.covered(0, 20) {
		t.Fatal("range with a hole reported covered")
	}
}

// TestVMASetRandomOpsInvariant drives a random op sequence and checks both
// the structural invariants and agreement with a page-level oracle.
func TestVMASetRandomOpsInvariant(t *testing.T) {
	const space = 64 // pages
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := &vmaSet{}
		oracle := make(map[mem.VPN]mem.Prot) // page -> prot, absent = unmapped
		prots := []mem.Prot{mem.ProtRead, mem.ProtRead | mem.ProtWrite, mem.ProtRead | mem.ProtExec, 0}
		for op := 0; op < 200; op++ {
			lo := mem.VPN(rng.Intn(space))
			hi := lo + mem.VPN(rng.Intn(8)+1)
			prot := prots[rng.Intn(len(prots))]
			switch rng.Intn(3) {
			case 0: // insert if free
				if !s.overlaps(lo, hi) {
					if err := s.insert(VMA{Lo: lo, Hi: hi, Prot: prot}); err != nil {
						t.Logf("insert failed on free range: %v", err)
						return false
					}
					for v := lo; v < hi; v++ {
						oracle[v] = prot
					}
				}
			case 1: // remove
				s.remove(lo, hi)
				for v := lo; v < hi; v++ {
					delete(oracle, v)
				}
			case 2: // protect mapped sub-ranges
				s.protect(lo, hi, prot)
				for v := lo; v < hi; v++ {
					if _, ok := oracle[v]; ok {
						oracle[v] = prot
					}
				}
			}
			if err := s.invariantErr(); err != nil {
				t.Logf("invariant violated after op %d: %v (%v)", op, err, s)
				return false
			}
			for v := mem.VPN(0); v < space+8; v++ {
				area, mapped := s.find(v)
				wantProt, wantMapped := oracle[v]
				if mapped != wantMapped {
					t.Logf("page %d mapped=%v oracle=%v (%v)", v, mapped, wantMapped, s)
					return false
				}
				if mapped && area.Prot != wantProt {
					t.Logf("page %d prot=%v oracle=%v", v, area.Prot, wantProt)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestVMASetClone(t *testing.T) {
	s := &vmaSet{}
	mustInsert(t, s, VMA{Lo: 0, Hi: 10, Prot: mem.ProtRead})
	c := s.clone()
	c.remove(0, 10)
	if s.len() != 1 {
		t.Fatal("clone shares state with original")
	}
}

// invariantErr checks ordering, disjointness and maximal coalescing,
// returning a description of the first violation.
func (s *vmaSet) invariantErr() error {
	for i, a := range s.areas {
		if a.Lo >= a.Hi {
			return fmt.Errorf("area %d empty: %v", i, a)
		}
		if i == 0 {
			continue
		}
		prev := s.areas[i-1]
		if prev.Hi > a.Lo {
			return fmt.Errorf("areas %d,%d overlap: %v %v", i-1, i, prev, a)
		}
		if prev.Hi == a.Lo && prev.Prot == a.Prot {
			return fmt.Errorf("areas %d,%d not coalesced: %v %v", i-1, i, prev, a)
		}
	}
	return nil
}
