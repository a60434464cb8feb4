package vm

import (
	"testing"

	"repro/internal/hw"
	"repro/internal/mem"
)

// TestDigestZeroWordsAndPageOrder: a page resident with word 0 digests like
// the same page not resident, and a page table digests the same whatever
// order its pages were installed in, because the fold walks it in page
// order — which matters, since the same pages folded out of order digest
// differently.
func TestDigestZeroWordsAndPageOrder(t *testing.T) {
	l := NewLayout()
	at, _, _, err := l.Resolve(OpMap, 0, 3*hw.PageSize, mem.ProtRead|mem.ProtWrite)
	if err != nil {
		t.Fatal(err)
	}
	base := mem.PageOf(at)
	digest := func(pt *mem.PageTable) Digest {
		d := l.Digest()
		for v, e := range pt.All {
			d.Page(v, e.Word)
		}
		return d
	}
	var ascending, descending, zeroResident mem.PageTable
	for _, v := range []mem.VPN{base, base + 2} {
		ascending.Set(v, mem.PTE{Word: int64(v)})
		zeroResident.Set(v, mem.PTE{Word: int64(v)})
	}
	for _, v := range []mem.VPN{base + 2, base} {
		descending.Set(v, mem.PTE{Word: int64(v)})
	}
	zeroResident.Set(base+1, mem.PTE{Word: 0})
	want := digest(&ascending)
	if got := digest(&zeroResident); got != want {
		t.Errorf("a resident zero page digests %#x, the same page absent %#x", got, want)
	}
	if got := digest(&descending); got != want {
		t.Errorf("pages installed in descending order digest %#x, ascending %#x", got, want)
	}
	reversed := l.Digest()
	reversed.Page(base+2, int64(base+2))
	reversed.Page(base, int64(base))
	if reversed == want {
		t.Errorf("pages folded out of page order digest like the page-order walk: order would not be part of the digest")
	}
	if empty := NewLayout(); empty.Digest() == l.Digest() {
		t.Errorf("a mapped area leaves the layout digest unchanged")
	}
}
