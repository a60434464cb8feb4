package vm

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/mem"
)

// VMA is one virtual memory area: a page-aligned, half-open range with
// uniform protection.
type VMA struct {
	Lo   mem.VPN  // first page
	Hi   mem.VPN  // one past the last page
	Prot mem.Prot // uniform protection for the whole range
}

// Pages returns the number of pages the VMA covers.
func (v VMA) Pages() int { return int(v.Hi - v.Lo) }

// Contains reports whether the page lies inside the VMA.
func (v VMA) Contains(p mem.VPN) bool { return p >= v.Lo && p < v.Hi }

// String renders the VMA as "[lo,hi) prot" with byte addresses.
func (v VMA) String() string {
	return fmt.Sprintf("[%#x,%#x) %v", uint64(v.Lo.Base()), uint64(v.Hi.Base()), v.Prot)
}

// vmaSet is an ordered set of non-overlapping VMAs with Linux-like
// split/merge semantics: unmap punches holes (splitting areas), protect
// splits at range edges and merges adjacent areas of equal protection.
type vmaSet struct {
	areas []VMA // sorted by Lo, pairwise disjoint
}

// clone returns a deep copy (the slice is the only mutable state).
func (s *vmaSet) clone() *vmaSet {
	return &vmaSet{areas: append([]VMA(nil), s.areas...)}
}

// len returns the number of areas.
func (s *vmaSet) len() int { return len(s.areas) }

// find returns the VMA containing the page, if any.
func (s *vmaSet) find(p mem.VPN) (VMA, bool) {
	i := sort.Search(len(s.areas), func(i int) bool { return s.areas[i].Hi > p })
	if i < len(s.areas) && s.areas[i].Contains(p) {
		return s.areas[i], true
	}
	return VMA{}, false
}

// overlaps reports whether any area intersects [lo, hi).
func (s *vmaSet) overlaps(lo, hi mem.VPN) bool {
	i := sort.Search(len(s.areas), func(i int) bool { return s.areas[i].Hi > lo })
	return i < len(s.areas) && s.areas[i].Lo < hi
}

// insert adds a new area. It is an error for the range to overlap an
// existing area (the address allocator prevents this in normal operation).
func (s *vmaSet) insert(v VMA) error {
	if v.Lo >= v.Hi {
		return fmt.Errorf("vm: empty or inverted VMA %v", v)
	}
	if s.overlaps(v.Lo, v.Hi) {
		return fmt.Errorf("vm: VMA %v overlaps an existing area", v)
	}
	i := sort.Search(len(s.areas), func(i int) bool { return s.areas[i].Lo > v.Lo })
	s.areas = append(s.areas, VMA{})
	copy(s.areas[i+1:], s.areas[i:])
	s.areas[i] = v
	s.mergeAround(i)
	return nil
}

// remove unmaps [lo, hi), splitting areas that straddle the edges. It
// returns the sub-ranges that were actually mapped (for page cleanup).
func (s *vmaSet) remove(lo, hi mem.VPN) []VMA {
	if lo >= hi {
		return nil
	}
	var removed []VMA
	out := s.areas[:0:0]
	for _, a := range s.areas {
		if a.Hi <= lo || a.Lo >= hi {
			out = append(out, a)
			continue
		}
		cutLo, cutHi := max(a.Lo, lo), min(a.Hi, hi)
		removed = append(removed, VMA{Lo: cutLo, Hi: cutHi, Prot: a.Prot})
		if a.Lo < cutLo {
			out = append(out, VMA{Lo: a.Lo, Hi: cutLo, Prot: a.Prot})
		}
		if a.Hi > cutHi {
			out = append(out, VMA{Lo: cutHi, Hi: a.Hi, Prot: a.Prot})
		}
	}
	s.areas = out
	return removed
}

// protect changes the protection of every mapped page in [lo, hi),
// splitting at the edges and merging equal-protection neighbours. It
// returns the sub-ranges whose protection actually changed. Unmapped gaps
// inside the range are skipped, as with Linux mprotect on holes... the
// caller decides whether that is an error.
func (s *vmaSet) protect(lo, hi mem.VPN, prot mem.Prot) []VMA {
	if lo >= hi {
		return nil
	}
	var changed []VMA
	out := s.areas[:0:0]
	for _, a := range s.areas {
		if a.Hi <= lo || a.Lo >= hi || a.Prot == prot {
			out = append(out, a)
			continue
		}
		cutLo, cutHi := max(a.Lo, lo), min(a.Hi, hi)
		changed = append(changed, VMA{Lo: cutLo, Hi: cutHi, Prot: a.Prot})
		if a.Lo < cutLo {
			out = append(out, VMA{Lo: a.Lo, Hi: cutLo, Prot: a.Prot})
		}
		out = append(out, VMA{Lo: cutLo, Hi: cutHi, Prot: prot})
		if a.Hi > cutHi {
			out = append(out, VMA{Lo: cutHi, Hi: a.Hi, Prot: a.Prot})
		}
	}
	s.areas = out
	s.mergeAll()
	return changed
}

// apply replays one layout change the origin committed: a map replaces
// whatever stale fragments its range held, an unmap punches its range out, a
// protect re-protects it. Replicas and the failover mirror change their
// layout only through here.
func (s *vmaSet) apply(u vmaUpdate) {
	switch u.Op {
	case opMap:
		s.remove(u.Lo, u.Hi)
		// insert cannot fail after the remove cleared the range.
		if err := s.insert(VMA{Lo: u.Lo, Hi: u.Hi, Prot: u.Prot}); err != nil {
			panic(fmt.Sprintf("vm: layout apply: %v", err))
		}
	case opUnmap:
		s.remove(u.Lo, u.Hi)
	case opProtect:
		s.protect(u.Lo, u.Hi, u.Prot)
	}
}

// covered reports whether every page of [lo, hi) is mapped.
func (s *vmaSet) covered(lo, hi mem.VPN) bool {
	p := lo
	for p < hi {
		a, ok := s.find(p)
		if !ok {
			return false
		}
		p = a.Hi
	}
	return true
}

// mergeAround coalesces the area at index i with equal-protection adjacent
// neighbours.
func (s *vmaSet) mergeAround(i int) {
	if i+1 < len(s.areas) && s.areas[i].Hi == s.areas[i+1].Lo && s.areas[i].Prot == s.areas[i+1].Prot {
		s.areas[i].Hi = s.areas[i+1].Hi
		s.areas = append(s.areas[:i+1], s.areas[i+2:]...)
	}
	if i > 0 && s.areas[i-1].Hi == s.areas[i].Lo && s.areas[i-1].Prot == s.areas[i].Prot {
		s.areas[i-1].Hi = s.areas[i].Hi
		s.areas = append(s.areas[:i], s.areas[i+1:]...)
	}
}

// mergeAll coalesces all adjacent equal-protection areas.
func (s *vmaSet) mergeAll() {
	if len(s.areas) < 2 {
		return
	}
	out := s.areas[:1]
	for _, a := range s.areas[1:] {
		last := &out[len(out)-1]
		if last.Hi == a.Lo && last.Prot == a.Prot {
			last.Hi = a.Hi
		} else {
			out = append(out, a)
		}
	}
	s.areas = out
}

func (s *vmaSet) String() string {
	parts := make([]string, len(s.areas))
	for i, a := range s.areas {
		parts[i] = a.String()
	}
	return strings.Join(parts, " ")
}
