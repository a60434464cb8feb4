package vm

import (
	"fmt"
	"slices"
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

// contains reports whether the page lies inside the VMA.
func (v VMA) contains(p mem.VPN) bool { return p >= v.Lo && p < v.Hi }

// String renders the VMA as "[lo,hi) prot" with byte addresses.
func (v VMA) String() string {
	return fmt.Sprintf("[%#x,%#x) %v", uint64(v.Lo.Base()), uint64(v.Hi.Base()), v.Prot)
}

// vmaSet is an ordered set of non-overlapping VMAs with Linux-like
// split/merge semantics: unmap punches holes (splitting areas), protect
// splits at range edges and merges adjacent areas of equal protection.
type vmaSet struct {
	areas []VMA // sorted by Lo, pairwise disjoint
	// removed is the storage remove returns its pieces in: they are valid
	// until the next remove on this set, so a caller uses them under the
	// lock that ordered the removal.
	removed []VMA
}

// len returns the number of areas.
func (s *vmaSet) len() int { return len(s.areas) }

// find returns the VMA containing the page, if any.
func (s *vmaSet) find(p mem.VPN) (VMA, bool) {
	i := sort.Search(len(s.areas), func(i int) bool { return s.areas[i].Hi > p })
	if i < len(s.areas) && s.areas[i].contains(p) {
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
// returns the sub-ranges that were actually mapped (for page cleanup), in
// ascending order, in the set's own storage: valid until the next remove. It
// splices the overlapping run of areas out in place, keeping at most the two
// edge remainders, so areas grows only when one area is split in the middle.
func (s *vmaSet) remove(lo, hi mem.VPN) []VMA {
	if lo >= hi {
		return nil
	}
	i := sort.Search(len(s.areas), func(i int) bool { return s.areas[i].Hi > lo })
	j := i + sort.Search(len(s.areas)-i, func(k int) bool { return s.areas[i+k].Lo >= hi })
	if i == j {
		return nil
	}
	s.removed = s.removed[:0]
	for _, a := range s.areas[i:j] {
		s.removed = append(s.removed, VMA{Lo: max(a.Lo, lo), Hi: min(a.Hi, hi), Prot: a.Prot})
	}
	var keep [2]VMA
	n := 0
	if first := s.areas[i]; first.Lo < lo {
		keep[n] = VMA{Lo: first.Lo, Hi: lo, Prot: first.Prot}
		n++
	}
	if last := s.areas[j-1]; last.Hi > hi {
		keep[n] = VMA{Lo: hi, Hi: last.Hi, Prot: last.Prot}
		n++
	}
	s.areas = slices.Replace(s.areas, i, j, keep[:n]...)
	return s.removed
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
	case OpMap:
		s.remove(u.Lo, u.Hi)
		// insert cannot fail after the remove cleared the range.
		if err := s.insert(VMA{Lo: u.Lo, Hi: u.Hi, Prot: u.Prot}); err != nil {
			panic(fmt.Sprintf("vm: layout apply: %v", err))
		}
	case OpUnmap:
		s.remove(u.Lo, u.Hi)
	case OpProtect:
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
