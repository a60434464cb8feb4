package vm

import (
	"repro/internal/mem"
	"repro/internal/msg"
)

// Digest is an address space's semantic digest, what a program could still
// observe of it once its threads have exited: the layout (the area count,
// each area's bounds and protection in address order, the break), then each
// non-zero page word with its page number, in page order. A zero word folds
// nothing, so whether a page is resident, which the program cannot see,
// does not count. It is FNV-1a over each value's eight bytes, folded
// inline: no hash.Hash, no allocation, no seed.
type Digest uint64

// Digest starts l's semantic digest; Page folds the pages.
func (l *Layout) Digest() Digest {
	d := Digest(14695981039346656037) // FNV-1a's 64-bit offset basis
	d.fold(uint64(l.vmas.len()))
	for _, v := range l.vmas.areas {
		d.fold(uint64(v.Lo))
		d.fold(uint64(v.Hi))
		d.fold(uint64(v.Prot))
	}
	d.fold(uint64(l.brk))
	return d
}

// Page folds page v's word. Pages come in ascending order, as a mem.Radix
// walk yields them.
func (d *Digest) Page(v mem.VPN, word int64) {
	if word != 0 {
		d.fold(uint64(v))
		d.fold(uint64(word))
	}
}

// fold mixes x's eight bytes into the digest, low byte first.
func (d *Digest) fold(x uint64) {
	for range 8 {
		*d = (*d ^ Digest(x&0xff)) * 1099511628211 // FNV-1a's 64-bit prime
		x >>= 8
	}
}

// Digest returns group gid's semantic digest if this kernel is its origin,
// else 0: the origin's layout, and for each directory entry the word a
// valid copy holds — the owner's for a modified page, the lowest sharer's
// for a shared one, else the directory's own. At quiescence all valid
// copies agree. peer returns kernel n's service, nil if it cannot be read
// (crashed). It only reads: it sends nothing and charges no cost.
func (s *Service) Digest(gid GID, peer func(n msg.NodeID) *Service) uint64 {
	sp, ok := s.spaces[gid]
	if !ok || !sp.isOrigin {
		return 0
	}
	d := sp.layout.Digest()
	for vpn, de := range sp.dir.All {
		word, holder := de.value, de.owner()
		switch de.state {
		case pageShared:
			holder = de.sharers.first()
			fallthrough
		case pageModified:
			if svc := peer(holder); svc != nil {
				if rep, ok := svc.spaces[gid]; ok {
					if e, ok := rep.pt.Lookup(vpn); ok {
						word = e.Word
					}
				}
			}
		}
		d.Page(vpn, word)
	}
	return uint64(d)
}
